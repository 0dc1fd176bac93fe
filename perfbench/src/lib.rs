//! The repository's benchmark: one command runs a named workload of the
//! simulator, checks its outputs, and reports end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run. Layers
//! are timed from outside, through their public functions; the simulator
//! itself is not changed. See `perfbench/README.md`.

pub mod bench;
pub mod host;
pub mod measure;
pub mod replay;
pub mod workloads;
