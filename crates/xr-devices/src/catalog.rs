//! The device catalog of Table I.
//!
//! The table lists seven XR devices (smartphones, smart glasses, a VR
//! headset, and a Jetson TX2 doubling as XR 7) and two Nvidia Jetson edge
//! servers. The analytical models only consume a handful of parameters per
//! device — peak CPU/GPU clock, memory bandwidth, RAM — but the catalog keeps
//! the descriptive fields too so `table1` can regenerate the table.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use xr_types::{Error, GigaBytesPerSecond, GigaHertz, Result};

/// Broad device roles in the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Hand-held or head-mounted XR client device.
    XrClient,
    /// Edge server hosting remote inference.
    EdgeServer,
    /// External sensor platform (the Jetson TX2 also plays this role).
    ExternalSensor,
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Catalog key ("XR1" … "XR7", "EDGE-TX2", "EDGE-XAVIER").
    pub name: String,
    /// Marketing model name.
    pub model: String,
    /// System-on-chip name.
    pub soc: String,
    /// Device role.
    pub class: DeviceClass,
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Peak CPU clock.
    pub cpu_clock: GigaHertz,
    /// GPU name.
    pub gpu: String,
    /// Effective GPU clock used by the compute-resource model.
    pub gpu_clock: GigaHertz,
    /// RAM size in GB.
    pub ram_gb: f64,
    /// Peak memory bandwidth (GB/s); this is `m_client` / `m_ε` in the
    /// latency model. Table I lists the RAM technology (LPDDR4/LPDDR5/…);
    /// the bandwidth values here are the corresponding vendor figures.
    pub memory_bandwidth: GigaBytesPerSecond,
    /// Operating system string.
    pub os: String,
    /// Wi-Fi capability string.
    pub wifi: String,
    /// Release date string.
    pub release: String,
}

/// The catalog of devices used in the experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceCatalog {
    devices: BTreeMap<String, DeviceSpec>,
}

impl DeviceCatalog {
    /// The shared catalog of Table I, built on first use.
    #[must_use]
    pub fn table1() -> &'static Self {
        static TABLE1: OnceLock<DeviceCatalog> = OnceLock::new();
        TABLE1.get_or_init(Self::build_table1)
    }

    /// The Table I literals behind [`DeviceCatalog::table1`].
    fn build_table1() -> Self {
        let mut devices = BTreeMap::new();
        let mut add = |spec: DeviceSpec| {
            devices.insert(spec.name.clone(), spec);
        };

        add(DeviceSpec {
            name: "XR1".into(),
            model: "Huawei Mate 40 Pro".into(),
            soc: "Kirin 9000 (5 nm)".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(3.13),
            gpu: "Mali G78".into(),
            gpu_clock: GigaHertz::new(0.76),
            ram_gb: 8.0,
            memory_bandwidth: GigaBytesPerSecond::new(44.0),
            os: "Android 10".into(),
            wifi: "802.11 a/b/g/n/ac/ax".into(),
            release: "October 2020".into(),
        });
        add(DeviceSpec {
            name: "XR2".into(),
            model: "OnePlus 8 Pro".into(),
            soc: "Snapdragon 865 (7 nm)".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.84),
            gpu: "Adreno 650".into(),
            gpu_clock: GigaHertz::new(0.587),
            ram_gb: 8.0,
            memory_bandwidth: GigaBytesPerSecond::new(44.0),
            os: "Android 10".into(),
            wifi: "802.11 a/b/g/n/ac/ax".into(),
            release: "April 2020".into(),
        });
        add(DeviceSpec {
            name: "XR3".into(),
            model: "Motorola One Macro".into(),
            soc: "Helio P70 (12 nm)".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.0),
            gpu: "Mali G72".into(),
            gpu_clock: GigaHertz::new(0.9),
            ram_gb: 4.0,
            memory_bandwidth: GigaBytesPerSecond::new(14.9),
            os: "Android 9".into(),
            wifi: "802.11 b/g/n".into(),
            release: "October 2019".into(),
        });
        add(DeviceSpec {
            name: "XR4".into(),
            model: "Xiaomi Redmi Note 8".into(),
            soc: "Snapdragon 665 (11 nm)".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.0),
            gpu: "Adreno 610".into(),
            gpu_clock: GigaHertz::new(0.6),
            ram_gb: 4.0,
            memory_bandwidth: GigaBytesPerSecond::new(14.9),
            os: "Android 10".into(),
            wifi: "802.11 a/b/g/n/ac".into(),
            release: "August 2020".into(),
        });
        add(DeviceSpec {
            name: "XR5".into(),
            model: "Google Glass Enterprise Edition 2".into(),
            soc: "Snapdragon XR1".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.52),
            gpu: "Adreno 615".into(),
            gpu_clock: GigaHertz::new(0.43),
            ram_gb: 3.0,
            memory_bandwidth: GigaBytesPerSecond::new(14.9),
            os: "Android 8.1".into(),
            wifi: "802.11 a/g/b/n/ac".into(),
            release: "May 2019".into(),
        });
        add(DeviceSpec {
            name: "XR6".into(),
            model: "Meta Quest 2".into(),
            soc: "Snapdragon XR2".into(),
            class: DeviceClass::XrClient,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.84),
            gpu: "Adreno 650".into(),
            gpu_clock: GigaHertz::new(0.587),
            ram_gb: 6.0,
            memory_bandwidth: GigaBytesPerSecond::new(44.0),
            os: "Oculus OS".into(),
            wifi: "802.11 a/g/b/n/ac/ax".into(),
            release: "October 2020".into(),
        });
        add(DeviceSpec {
            name: "XR7".into(),
            model: "Nvidia Jetson TX2".into(),
            soc: "Nvidia Tegra (Denver2 + A57)".into(),
            class: DeviceClass::ExternalSensor,
            cpu_cores: 6,
            cpu_clock: GigaHertz::new(2.0),
            gpu: "256-core Pascal".into(),
            gpu_clock: GigaHertz::new(1.3),
            ram_gb: 8.0,
            memory_bandwidth: GigaBytesPerSecond::new(59.7),
            os: "Ubuntu 18.04".into(),
            wifi: "—".into(),
            release: "March 2017".into(),
        });
        add(DeviceSpec {
            name: "EDGE-XAVIER".into(),
            model: "Nvidia Jetson AGX Xavier".into(),
            soc: "Nvidia Tegra Xavier".into(),
            class: DeviceClass::EdgeServer,
            cpu_cores: 8,
            cpu_clock: GigaHertz::new(2.26),
            gpu: "512-core Volta with Tensor Cores".into(),
            gpu_clock: GigaHertz::new(1.377),
            ram_gb: 32.0,
            memory_bandwidth: GigaBytesPerSecond::new(136.5),
            os: "Ubuntu 18.04 LTS aarch64".into(),
            wifi: "—".into(),
            release: "October 2018".into(),
        });
        add(DeviceSpec {
            name: "EDGE-TX2".into(),
            model: "Nvidia Jetson TX2 (edge role)".into(),
            soc: "Nvidia Tegra (Denver2 + A57)".into(),
            class: DeviceClass::EdgeServer,
            cpu_cores: 6,
            cpu_clock: GigaHertz::new(2.0),
            gpu: "256-core Pascal".into(),
            gpu_clock: GigaHertz::new(1.3),
            ram_gb: 8.0,
            memory_bandwidth: GigaBytesPerSecond::new(59.7),
            os: "Ubuntu 18.04".into(),
            wifi: "—".into(),
            release: "March 2017".into(),
        });

        Self { devices }
    }

    /// Looks up a device by catalog key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] when the key is unknown.
    pub fn device(&self, name: &str) -> Result<&DeviceSpec> {
        self.devices
            .get(name)
            .ok_or_else(|| Error::not_found("device", name))
    }

    /// All devices, in catalog-key order.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.devices.values()
    }

    /// Only XR client devices (the smartphones, glasses, and headset).
    pub fn xr_clients(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.iter().filter(|d| d.class == DeviceClass::XrClient)
    }

    /// Only edge servers.
    pub fn edge_servers(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.iter().filter(|d| d.class == DeviceClass::EdgeServer)
    }

    /// The devices the paper trains its regressions on (XR1, XR3, XR5, XR6).
    #[must_use]
    pub fn training_devices() -> Vec<&'static str> {
        vec!["XR1", "XR3", "XR5", "XR6"]
    }

    /// The held-out devices used for validation (XR2, XR4, XR7).
    #[must_use]
    pub fn validation_devices() -> Vec<&'static str> {
        vec!["XR2", "XR4", "XR7"]
    }

    /// Number of catalog entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the catalog has no entries (never the case for
    /// [`DeviceCatalog::table1`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_devices() {
        let catalog = DeviceCatalog::table1();
        assert_eq!(catalog.len(), 9);
        assert!(!catalog.is_empty());
        for key in ["XR1", "XR2", "XR3", "XR4", "XR5", "XR6", "XR7"] {
            assert!(catalog.device(key).is_ok(), "missing {key}");
        }
        assert_eq!(catalog.xr_clients().count(), 6);
        assert_eq!(catalog.edge_servers().count(), 2);
    }

    #[test]
    fn table1_is_built_once() {
        assert!(std::ptr::eq(
            DeviceCatalog::table1(),
            DeviceCatalog::table1()
        ));
    }

    #[test]
    fn unknown_device_reports_not_found() {
        let catalog = DeviceCatalog::table1();
        assert!(matches!(
            catalog.device("XR99"),
            Err(Error::NotFound { .. })
        ));
    }

    #[test]
    fn training_and_validation_sets_partition_clients() {
        let train = DeviceCatalog::training_devices();
        let valid = DeviceCatalog::validation_devices();
        assert_eq!(train.len(), 4);
        assert_eq!(valid.len(), 3);
        for d in &valid {
            assert!(!train.contains(d));
        }
    }

    #[test]
    fn edge_servers_have_more_memory_bandwidth_than_phones() {
        let catalog = DeviceCatalog::table1();
        let xavier = catalog.device("EDGE-XAVIER").unwrap();
        for client in catalog.xr_clients() {
            assert!(xavier.memory_bandwidth > client.memory_bandwidth);
        }
        assert_eq!(xavier.class, DeviceClass::EdgeServer);
        assert_ne!(
            catalog.device("XR1").unwrap().class,
            DeviceClass::EdgeServer
        );
    }

    #[test]
    fn specs_match_table1_headline_numbers() {
        let catalog = DeviceCatalog::table1();
        let xr1 = catalog.device("XR1").unwrap();
        assert!((xr1.cpu_clock.as_f64() - 3.13).abs() < 1e-9);
        assert_eq!(xr1.ram_gb, 8.0);
        let xr5 = catalog.device("XR5").unwrap();
        assert_eq!(xr5.ram_gb, 3.0);
        let xavier = catalog.device("EDGE-XAVIER").unwrap();
        assert_eq!(xavier.ram_gb, 32.0);
        assert_eq!(xavier.cpu_cores, 8);
    }

    #[test]
    fn iteration_is_deterministic() {
        let a: Vec<String> = DeviceCatalog::table1()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let b: Vec<String> = DeviceCatalog::table1()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        assert_eq!(a, b);
    }
}
