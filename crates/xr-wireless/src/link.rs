//! Access technologies and point-to-point wireless links.

use serde::{Deserialize, Serialize};
use std::fmt;
use xr_types::{MegaBitsPerSecond, MegaBytes, Meters, Seconds, SPEED_OF_LIGHT};

/// Wireless access technologies appearing in the paper's testbed (Table I
/// lists 802.11 a/b/g/n/ac/ax radios; the handoff model also considers
/// cellular for vertical handoffs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessTechnology {
    /// 802.11n on the 2.4 GHz band (the LinkSys router's slower band).
    WiFi2_4GHz,
    /// 802.11ac/ax on the 5 GHz band (the testbed's primary link).
    WiFi5GHz,
    /// 802.11ad 60 GHz (used in the related-work discussion of \[37\]).
    WiGig60GHz,
    /// LTE cellular, the vertical-handoff target in Section IV.
    Lte,
    /// 5G NR sub-6 GHz.
    FiveGSub6,
}

impl AccessTechnology {
    /// Nominal application-layer throughput for the technology, used as the
    /// default `r_w` when a link does not override it.
    #[must_use]
    pub fn nominal_throughput(self) -> MegaBitsPerSecond {
        match self {
            AccessTechnology::WiFi2_4GHz => MegaBitsPerSecond::new(40.0),
            AccessTechnology::WiFi5GHz => MegaBitsPerSecond::new(200.0),
            AccessTechnology::WiGig60GHz => MegaBitsPerSecond::new(1_500.0),
            AccessTechnology::Lte => MegaBitsPerSecond::new(30.0),
            AccessTechnology::FiveGSub6 => MegaBitsPerSecond::new(300.0),
        }
    }
}

impl fmt::Display for AccessTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccessTechnology::WiFi2_4GHz => "Wi-Fi 2.4 GHz",
            AccessTechnology::WiFi5GHz => "Wi-Fi 5 GHz",
            AccessTechnology::WiGig60GHz => "WiGig 60 GHz",
            AccessTechnology::Lte => "LTE",
            AccessTechnology::FiveGSub6 => "5G sub-6 GHz",
        };
        f.write_str(name)
    }
}

/// A point-to-point wireless link between the XR device and a peer (edge
/// server, external sensor, or cooperative XR device).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WirelessLink {
    distance: Meters,
    throughput: MegaBitsPerSecond,
}

impl WirelessLink {
    /// Creates a link with the technology's nominal throughput.
    #[must_use]
    pub fn new(technology: AccessTechnology, distance: Meters) -> Self {
        Self {
            distance,
            throughput: technology.nominal_throughput(),
        }
    }

    /// Overrides the available throughput `r_w` (e.g. after contention or
    /// rate adaptation).
    ///
    /// # Panics
    ///
    /// Panics if the throughput is not strictly positive.
    #[must_use]
    pub fn with_throughput(mut self, throughput: MegaBitsPerSecond) -> Self {
        assert!(throughput.is_positive(), "link throughput must be positive");
        self.throughput = throughput;
        self
    }

    /// Available application-layer throughput `r_w`.
    #[must_use]
    pub fn throughput(&self) -> MegaBitsPerSecond {
        self.throughput
    }

    /// One-way propagation delay `d/c`.
    #[must_use]
    pub fn propagation_delay(&self) -> Seconds {
        self.distance / SPEED_OF_LIGHT
    }

    /// Transmission latency of Eq. 16: `δ/r_w + d/c`.
    #[must_use]
    pub fn transmission_latency(&self, payload: MegaBytes) -> Seconds {
        payload / self.throughput + self.propagation_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_latency_decomposes() {
        let link = WirelessLink::new(AccessTechnology::WiFi5GHz, Meters::new(30.0))
            .with_throughput(MegaBitsPerSecond::new(100.0));
        let payload = MegaBytes::new(1.25); // 10 Mb
        let expected_serialisation = 10.0 / 100.0;
        let expected_propagation = 30.0 / SPEED_OF_LIGHT.as_f64();
        let total = link.transmission_latency(payload).as_f64();
        assert!((total - expected_serialisation - expected_propagation).abs() < 1e-12);
    }

    #[test]
    fn higher_throughput_is_faster() {
        let slow = WirelessLink::new(AccessTechnology::WiFi2_4GHz, Meters::new(10.0));
        let fast = WirelessLink::new(AccessTechnology::WiFi5GHz, Meters::new(10.0));
        let payload = MegaBytes::new(2.0);
        assert!(fast.transmission_latency(payload) < slow.transmission_latency(payload));
    }

    #[test]
    fn propagation_delay_scales_with_distance() {
        let near = WirelessLink::new(AccessTechnology::Lte, Meters::new(100.0));
        let far = WirelessLink::new(AccessTechnology::Lte, Meters::new(1000.0));
        assert!(
            (far.propagation_delay().as_f64() / near.propagation_delay().as_f64() - 10.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn technology_catalog_is_sensible() {
        assert!(
            AccessTechnology::WiFi5GHz.nominal_throughput()
                > AccessTechnology::WiFi2_4GHz.nominal_throughput()
        );
        assert!(format!("{}", AccessTechnology::FiveGSub6).contains("5G"));
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        let _ = WirelessLink::new(AccessTechnology::WiFi5GHz, Meters::new(1.0))
            .with_throughput(MegaBitsPerSecond::new(0.0));
    }
}
