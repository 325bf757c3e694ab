//! Fixture: a float-eq violation under an unjustified allow.

/// Fixture: documented exact sentinel test with an unjustified allow.
pub fn is_sentinel(x: f64) -> bool {
    // dcn-lint: allow(float-eq)
    x == 2.0
}
