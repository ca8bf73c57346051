//! Workspace-root helper crate.
//!
//! Hosts the repository's runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`); re-exports the umbrella crate for
//! convenience.

#![forbid(unsafe_code)]

pub use pimphony;
