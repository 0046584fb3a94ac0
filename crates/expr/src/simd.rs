//! Probe for explicit vector kernels in the lane interpreters.
//!
//! No vector kernels are built: the columnar lane loops in [`crate::vm`]
//! are plain indexed f64 kernels left to the compiler's auto-vectorizer,
//! and every tier is bit-exact.

/// Whether hand-written vector kernels are live in this build. No vector
/// kernels are built, so this is always `false`; it stays so host
/// fingerprints that record the field keep working.
pub fn active() -> bool {
    false
}
