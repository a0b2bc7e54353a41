//! The CNN catalog of Table II and the CNN-complexity model of Eq. 12.
//!
//! The paper captures the effect of a CNN on inference latency/energy with a
//! single scalar complexity `C_CNN`, fitted by linear regression over the
//! model's depth (number of layers), size (storage space in MB), and depth
//! scaling factor:
//!
//! `C_CNN = 2.45 + 0.0025·d_CNN + 0.03·s_CNN + 0.0029·d_scale`  (R² = 0.844)
//!
//! `C_CNN` then divides the allocated compute in the local/remote inference
//! latency (Eqs. 11 and 13) — a larger, deeper network slows inference down
//! proportionally to its complexity.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use xr_stats::{FittedLinearModel, LinearRegression, NormalEquations};
use xr_types::{Error, MegaBytes, Result};

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnModel {
    /// Catalog key, e.g. "MobileNetV2_300_Float".
    pub name: String,
    /// Model depth: number of layers `d_CNN`.
    pub depth: u32,
    /// Storage space `s_CNN` in MB.
    pub size: MegaBytes,
    /// Depth/compound scaling factor `d_scale` (×100 to keep the regression's
    /// coefficient meaningful; 0 when the model has no scaling).
    pub depth_scale: f64,
    /// Whether the testbed ran this model with GPU delegation.
    pub gpu_support: bool,
    /// Whether this is a quantised (int8) variant.
    pub quantized: bool,
    /// Whether the model is light enough to run on the XR device (local
    /// inference) as opposed to edge-only models (YOLOv3/YOLOv7).
    pub on_device: bool,
}

impl CnnModel {
    /// The complexity `C_CNN` of this model under a given complexity model.
    #[must_use]
    pub fn complexity(&self, model: &CnnComplexityModel) -> f64 {
        model.complexity(self)
    }
}

/// The 11-model catalog of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnCatalog {
    models: BTreeMap<String, CnnModel>,
}

impl CnnCatalog {
    /// The shared catalog of Table II, built on first use.
    #[must_use]
    pub fn table2() -> &'static Self {
        static TABLE2: OnceLock<CnnCatalog> = OnceLock::new();
        TABLE2.get_or_init(Self::build_table2)
    }

    /// The Table II literals behind [`CnnCatalog::table2`].
    fn build_table2() -> Self {
        let mut models = BTreeMap::new();
        let mut add = |name: &str,
                       depth: u32,
                       size_mb: f64,
                       depth_scale: f64,
                       gpu: bool,
                       quant: bool,
                       on_device: bool| {
            models.insert(
                name.to_string(),
                CnnModel {
                    name: name.to_string(),
                    depth,
                    size: MegaBytes::new(size_mb),
                    depth_scale,
                    gpu_support: gpu,
                    quantized: quant,
                    on_device,
                },
            );
        };

        add("MobileNetV1_240_Float", 31, 16.9, 0.0, true, false, true);
        add("MobileNetV1_240_Quant", 31, 4.3, 0.0, false, true, true);
        add("MobileNetV2_300_Float", 99, 24.2, 0.0, true, false, true);
        add("MobileNetV2_300_Quant", 112, 6.9, 0.0, false, true, true);
        add("MobileNetV2_640_Float", 155, 12.3, 0.0, true, false, true);
        add("MobileNetV2_640_Quant", 167, 4.5, 0.0, false, true, true);
        add("EfficientNet_Float", 62, 18.6, 0.0, true, false, true);
        add("EfficientNet_Quant", 65, 5.4, 0.0, false, true, true);
        add("NasNet_Float", 663, 21.4, 0.0, true, false, true);
        add("YoloV3", 106, 210.0, 0.0, true, false, false);
        add("YoloV7", 0, 142.8, 150.0, true, false, false);

        Self { models }
    }

    /// Looks up a CNN by catalog key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] when the key is unknown.
    pub fn model(&self, name: &str) -> Result<&CnnModel> {
        self.models
            .get(name)
            .ok_or_else(|| Error::not_found("cnn", name))
    }

    /// All models, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CnnModel> {
        self.models.values()
    }

    /// Lightweight models suitable for on-device (local) inference.
    pub fn on_device_models(&self) -> impl Iterator<Item = &CnnModel> {
        self.iter().filter(|m| m.on_device)
    }

    /// The default lightweight on-device model used in the evaluation
    /// (MobileNetV2 with a 300×300 input, float).
    ///
    /// # Panics
    ///
    /// Never panics for the built-in catalog.
    #[must_use]
    pub fn default_local(&self) -> &CnnModel {
        self.model("MobileNetV2_300_Float")
            .expect("built-in catalog contains MobileNetV2_300_Float")
    }

    /// The default edge-side model (YOLOv3).
    ///
    /// # Panics
    ///
    /// Never panics for the built-in catalog.
    #[must_use]
    pub fn default_remote(&self) -> &CnnModel {
        self.model("YoloV3")
            .expect("built-in catalog contains YoloV3")
    }

    /// Number of catalog entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` when the catalog is empty (never for
    /// [`CnnCatalog::table2`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The Eq.-12 regression: linear in [`CnnComplexityModel::features`], with
/// an intercept.
const REGRESSION: LinearRegression = LinearRegression::new();

/// The CNN complexity regression of Eq. 12.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CnnComplexityModel {
    model: FittedLinearModel,
}

impl CnnComplexityModel {
    /// The published coefficients of Eq. 12 (R² = 0.844).
    #[must_use]
    pub fn published() -> Self {
        Self {
            model: FittedLinearModel::from_coefficients(2.45, vec![0.0025, 0.03, 0.0029], 0.844),
        }
    }

    /// Refits the complexity model on a dataset of
    /// `(depth, size_mb, depth_scale) → measured complexity` rows, as the
    /// paper does with its latency/energy measurements of the 11 CNNs across
    /// devices.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (empty or singular designs).
    pub fn fit(rows: &[(f64, f64, f64)], complexities: &[f64]) -> Result<Self> {
        let model = REGRESSION.fit(
            rows.len(),
            |i| {
                let (d, s, c) = rows[i];
                [d, s, c]
            },
            complexities,
        )?;
        Ok(Self { model })
    }

    /// Empty normal equations of the Eq.-12 form, to push
    /// [`Self::features`] rows into.
    #[must_use]
    pub fn equations() -> NormalEquations<3> {
        REGRESSION.equations()
    }

    /// The Eq.-12 model solved from accumulated normal equations: the
    /// coefficients [`Self::fit`] gives on the same rows, without in-sample
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (no rows, or a singular design).
    pub fn solve(equations: &NormalEquations<3>) -> Result<Self> {
        Ok(Self {
            model: equations.solve()?,
        })
    }

    /// The regression's feature vector of a CNN: `[depth, size (MB),
    /// depth scale]`.
    #[must_use]
    pub fn features(cnn: &CnnModel) -> [f64; 3] {
        [f64::from(cnn.depth), cnn.size.as_f64(), cnn.depth_scale]
    }

    /// Evaluates `C_CNN` for a CNN. The result is clamped below at a small
    /// positive value because the complexity divides the compute resource in
    /// Eqs. 11/13.
    #[must_use]
    pub fn complexity(&self, cnn: &CnnModel) -> f64 {
        self.model.predict(&Self::features(cnn)).max(0.1)
    }

    /// R² of the underlying regression; `None` for a model from
    /// [`Self::solve`].
    #[must_use]
    pub fn r_squared(&self) -> Option<f64> {
        self.model.r_squared()
    }

    /// Access to the fitted regression (coefficients, intervals).
    #[must_use]
    pub fn regression(&self) -> &FittedLinearModel {
        &self.model
    }
}

impl Default for CnnComplexityModel {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eleven_models() {
        let catalog = CnnCatalog::table2();
        assert_eq!(catalog.len(), 11);
        assert!(!catalog.is_empty());
        assert_eq!(catalog.on_device_models().count(), 9);
        assert_eq!(catalog.iter().filter(|m| !m.on_device).count(), 2);
    }

    #[test]
    fn table2_is_built_once() {
        assert!(std::ptr::eq(CnnCatalog::table2(), CnnCatalog::table2()));
    }

    #[test]
    fn lookups_and_defaults() {
        let catalog = CnnCatalog::table2();
        assert!(catalog.model("YoloV3").is_ok());
        assert!(matches!(
            catalog.model("ResNet50"),
            Err(Error::NotFound { .. })
        ));
        assert_eq!(catalog.default_local().name, "MobileNetV2_300_Float");
        assert_eq!(catalog.default_remote().name, "YoloV3");
        assert!(!catalog.default_remote().on_device);
    }

    #[test]
    fn quantized_variants_are_smaller() {
        let catalog = CnnCatalog::table2();
        let float = catalog.model("MobileNetV2_300_Float").unwrap();
        let quant = catalog.model("MobileNetV2_300_Quant").unwrap();
        assert!(quant.size < float.size);
        assert!(quant.quantized && !float.quantized);
    }

    #[test]
    fn published_complexity_matches_eq12() {
        let model = CnnComplexityModel::published();
        let catalog = CnnCatalog::table2();
        let yolo = catalog.model("YoloV3").unwrap();
        let expected = 2.45 + 0.0025 * 106.0 + 0.03 * 210.0;
        assert!((model.complexity(yolo) - expected).abs() < 1e-9);
        assert!((model.r_squared().unwrap() - 0.844).abs() < 1e-12);
    }

    #[test]
    fn bigger_models_are_more_complex() {
        let model = CnnComplexityModel::published();
        let catalog = CnnCatalog::table2();
        let mobilenet = catalog.model("MobileNetV1_240_Quant").unwrap();
        let nasnet = catalog.model("NasNet_Float").unwrap();
        let yolo = catalog.model("YoloV3").unwrap();
        assert!(model.complexity(yolo) > model.complexity(mobilenet));
        assert!(model.complexity(nasnet) > model.complexity(mobilenet));
        // Complexity is always usable as a divisor.
        for cnn in catalog.iter() {
            assert!(model.complexity(cnn) > 0.0);
        }
    }

    #[test]
    fn refit_recovers_known_coefficients() {
        // Generate synthetic complexities from the published law and refit.
        let published = CnnComplexityModel::published();
        let catalog = CnnCatalog::table2();
        let rows: Vec<(f64, f64, f64)> = catalog
            .iter()
            .map(|m| (f64::from(m.depth), m.size.as_f64(), m.depth_scale))
            .collect();
        let ys: Vec<f64> = catalog.iter().map(|m| published.complexity(m)).collect();
        let refit = CnnComplexityModel::fit(&rows, &ys).unwrap();
        for cnn in catalog.iter() {
            assert!((refit.complexity(cnn) - published.complexity(cnn)).abs() < 1e-6);
        }
        assert!(refit.r_squared().unwrap() > 0.999);
        assert_eq!(refit.regression().coefficients().len(), 3);
    }
}
