//! Workspace-level integration-test package.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]`
//! targets in `Cargo.toml`; this library only hosts shared helpers.

/// Builds the standard evaluation scenario used across the integration tests:
/// the held-out XR2 client at a given frame size, clock and execution target.
///
/// # Panics
///
/// Panics if the scenario fails validation (it never does for valid sweep
/// inputs).
#[must_use]
pub fn evaluation_scenario(
    frame_size: f64,
    cpu_clock_ghz: f64,
    execution: xr_types::ExecutionTarget,
) -> xr_core::Scenario {
    xr_core::Scenario::builder()
        .client_from_catalog("XR2")
        .expect("XR2 exists")
        .frame_side(frame_size)
        .cpu_clock(xr_types::GigaHertz::new(cpu_clock_ghz))
        .execution(execution)
        .build()
        .expect("valid scenario")
}

/// The text of a checked-in grid spec under the repository's `configs/`
/// directory, such as `fig-mobility.grid`.
///
/// # Panics
///
/// Panics with the path if the file cannot be read.
#[must_use]
pub fn config_spec(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../configs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}
