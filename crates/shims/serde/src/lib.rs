//! Offline stand-in for the real `serde` crate.
//!
//! The workspace builds in an air-gapped container with no registry access,
//! so `Serialize`/`Deserialize` are defined here as empty marker traits and
//! the `#[derive(Serialize, Deserialize)]` attributes resolve to shim macros
//! that emit empty impls. No code in this workspace performs actual
//! serialization yet; when a future PR needs it (and the build environment
//! has registry access), point the root manifest's `serde` entry back at
//! crates.io and everything downstream keeps compiling unchanged.

#![forbid(unsafe_code)]

/// Marker trait mirroring `serde::Serialize`. Carries no behavior in the
/// offline shim; real serialization would replace this crate wholesale.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`. Carries no behavior in the
/// offline shim; real deserialization would replace this crate wholesale.
pub trait Deserialize<'de>: Sized {}

pub use serde_derive::{Deserialize, Serialize};
