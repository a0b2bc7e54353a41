//! # xr-types
//!
//! Shared units, newtypes, identifiers, and error types for the `xr-perf`
//! workspace — a reproduction of *"A Performance Analysis Modeling Framework
//! for Extended Reality Applications in Edge-Assisted Wireless Networks"*
//! (Mallik, Xie, Han — ICDCS 2024).
//!
//! The paper's analytical models mix many physical dimensions (seconds,
//! millijoules, megabytes, gigahertz, pixels², Mbps, …). Every quantity that
//! crosses a crate boundary in this workspace is wrapped in a newtype from
//! this crate so that, e.g., a memory bandwidth can never be passed where a
//! clock frequency is expected ([C-NEWTYPE]).
//!
//! ```
//! use xr_types::{GigaHertz, MegaBytes, Seconds};
//!
//! let clock = GigaHertz::new(2.0);
//! let data = MegaBytes::new(3.5);
//! let dt = Seconds::new(0.016);
//! assert!(clock.as_f64() > 0.0 && data.as_f64() > 0.0 && dt.as_f64() > 0.0);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod error;
pub mod frame;
pub mod ids;
pub mod seed;
pub mod segment;
pub mod topology;
pub mod units;

pub use error::{Error, Result};
pub use frame::{Frame, FrameStream};
pub use ids::FrameId;
pub use segment::{ExecutionTarget, Segment, SegmentSet};
pub use topology::{MigrationPolicy, TopologyLayout};
pub use units::{
    GigaBytesPerSecond, GigaHertz, Hertz, Joules, MegaBitsPerSecond, MegaBytes, Meters,
    MetersPerSecond, MilliJoules, MilliSeconds, PixelsSquared, Ratio, Seconds, Watts,
    SPEED_OF_LIGHT,
};
