//! The LoPRAM repository's end-to-end benchmark.
//!
//! Four workloads (see [`workloads`]) run as closed loops on a p = 2
//! pool; every output is checked ([`check`]); a run with tracing off
//! prints the end-to-end metrics and a separate traced run prints the
//! per-layer ones ([`report`]).  See `README.md` next to this crate.

pub mod check;
pub mod host;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod workloads;
