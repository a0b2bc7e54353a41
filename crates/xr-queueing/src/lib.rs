//! # xr-queueing
//!
//! Queueing-theory substrate for the xr-perf workspace.
//!
//! The paper models the XR device's input buffer — where captured frames,
//! volumetric data and external sensor information are queued before
//! rendering — as a stable **M/M/1** system (Section IV-B, Eq. 7, and the AoI
//! model of Section VI, Eq. 22). This crate provides:
//!
//! * [`MM1Queue`] — closed-form steady-state results (mean time in system
//!   `1/(µ−λ)`, waiting time, queue lengths, utilisation, Little's-law
//!   helpers).
//! * [`EdgeContention`] — the multi-tenant coupling: `N` sessions sharing one
//!   edge inference server as a stable M/M/1 queue over the aggregate frame
//!   stream, driving the testbed's contended uplink/edge stage.
//! * [`MM1Simulator`] — a discrete-event simulation of the same system, built
//!   on [`des`], a small generic event queue keyed by simulated time. It
//!   shares no code with the testbed (which samples exponential sojourns at
//!   rate `µ − λ` directly), so the test-suite uses it as an independent
//!   oracle for the closed forms.
//!
//! ```
//! use xr_queueing::MM1Queue;
//!
//! // 300 packets/s arriving at a buffer served at 1000 packets/s.
//! let q = MM1Queue::new(300.0, 1000.0)?;
//! assert!((q.mean_time_in_system().as_f64() - 1.0 / 700.0).abs() < 1e-12);
//! assert!(q.utilization() < 1.0);
//! # Ok::<(), xr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod contention;
pub mod des;
pub mod mm1;
pub mod simulator;

pub use contention::EdgeContention;
pub use des::{Event, EventQueue};
pub use mm1::MM1Queue;
pub use simulator::{MM1Simulator, SimulationReport};
