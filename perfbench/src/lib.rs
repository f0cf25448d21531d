//! End-to-end and per-layer benchmark of the CoScale simulator stack.
//!
//! Four workloads, each run in one process: `node-paper` (one paper-sized
//! server under CoScale and StaticMax), `fleet-batch` (a 512-server batch
//! fleet on the event engine), `coord-plane` (the coordinator and control
//! plane alone, fed synthetic telemetry) and `serve-dag` (a closed-loop
//! multi-tier serving fleet). Everything is timed from outside the
//! simulator through its public API. See `README.md`.

pub mod common;
mod coord;
mod fleet;
pub mod metrics;
mod node;
mod serve;

pub use common::{Opts, Report, Size};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["node-paper", "fleet-batch", "coord-plane", "serve-dag"];

/// Runs `workload`, or returns `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    Some(match workload {
        "node-paper" => node::run(opts),
        "fleet-batch" => fleet::run(opts),
        "coord-plane" => coord::run(opts),
        "serve-dag" => serve::run(opts),
        _ => return None,
    })
}
