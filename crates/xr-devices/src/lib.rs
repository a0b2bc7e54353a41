//! # xr-devices
//!
//! Device and CNN catalogs plus the hardware-dependent regression sub-models
//! of the paper.
//!
//! * [`catalog`] — the XR devices and edge servers of Table I (XR1–XR7,
//!   Nvidia Jetson TX2 and AGX Xavier) with their CPU/GPU clocks, RAM,
//!   memory bandwidth, Wi-Fi capability and release dates.
//! * [`cnn`] — the 11 CNN models of Table II (MobileNet v1/v2 variants,
//!   EfficientNet, NasNet, YOLOv3, YOLOv7) and the CNN-complexity model of
//!   Eq. 12.
//! * [`compute`] — the computation-resource availability model of Eq. 3
//!   (`c_client` as a regression over CPU/GPU clocks and the utilisation
//!   split `ω_c`), plus the paper's edge/client coupling `c_ε = 11.76·c_client`.
//! * [`power`] — the mean-power model of Eq. 21, base power, and the
//!   thermal-conversion fraction used by the energy model.
//!
//! ```
//! use xr_devices::{DeviceCatalog, ComputeResourceModel};
//! use xr_types::{GigaHertz, Ratio};
//!
//! let catalog = DeviceCatalog::table1();
//! let xr2 = catalog.device("XR2").unwrap();
//! let model = ComputeResourceModel::published();
//! let c = model.client_resource(GigaHertz::new(2.0), xr2.gpu_clock, Ratio::new(0.6));
//! assert!(c > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cnn;
pub mod compute;
pub mod power;

pub use catalog::{DeviceCatalog, DeviceClass, DeviceSpec};
pub use cnn::{CnnCatalog, CnnComplexityModel, CnnModel};
pub use compute::ComputeResourceModel;
pub use power::{BasePower, MeanPowerModel, ThermalModel};
