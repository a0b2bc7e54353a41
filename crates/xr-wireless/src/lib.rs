//! # xr-wireless
//!
//! Wireless-network substrate for the xr-perf workspace.
//!
//! The paper's latency model needs, from the wireless side:
//!
//! * propagation delay `d/c` between sensors / edge servers / cooperative
//!   devices and the XR device (Eqs. 6, 16, 18, 23),
//! * the available throughput `r_w` of the access link (Eq. 16),
//! * the handoff probability `P(HO)` of a mobile XR device under a random
//!   walk mobility model and the handoff latency `l_HO` for horizontal and
//!   vertical handoffs (Eq. 17, following refs. \[49\]–\[51\]).
//!
//! Like the paper ("We assume that there are no path loss, shadowing, or
//! fading effects"), the links model no path loss.
//!
//! ```
//! use xr_wireless::{AccessTechnology, WirelessLink};
//! use xr_types::{MegaBytes, Meters};
//!
//! let link = WirelessLink::new(AccessTechnology::WiFi5GHz, Meters::new(10.0));
//! let latency = link.transmission_latency(MegaBytes::new(0.5));
//! assert!(latency.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod handoff;
pub mod link;
pub mod mobility;
pub mod topology;

pub use handoff::{HandoffKind, HandoffModel};
pub use link::{AccessTechnology, WirelessLink};
pub use mobility::{CoverageZone, RandomWalkMobility, RandomWalker};
pub use topology::{EdgeSite, EdgeTopology, SiteEvents, StepColumn, TopologyWalker};
