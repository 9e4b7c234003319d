//! # sybench — the SYgraph reproduction's benchmark
//!
//! One command runs a named workload from a seed, checks every output
//! against `sygraph_algos::reference`, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) as the last line
//! of standard output. See `sybench/README.md` for the workloads, the
//! metric → layer → end-to-end map and how to read the trace.

pub mod check;
pub mod http;
pub mod library;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod trace;
pub mod workload;
