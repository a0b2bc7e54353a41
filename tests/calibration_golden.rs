//! Golden pin of the context calibration: the measurement campaign and the
//! four OLS sub-model fits must keep every bit, at quick and paper scale.

use xr_integration::{calibration_fingerprint, CALIBRATION_GOLDEN, CALIBRATION_SEED};

#[test]
fn calibration_matches_the_checked_in_bits() {
    let actual = calibration_fingerprint(CALIBRATION_SEED);
    for (line, (got, want)) in actual.lines().zip(CALIBRATION_GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "calibration golden line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        CALIBRATION_GOLDEN.lines().count(),
        "calibration golden line count"
    );
}
