//! The metric names `BENCHMARK.json` declares, with their units. Every
//! workload prints every one: end-to-end metrics in an untraced run,
//! per-layer metrics in a traced run. A per-layer metric of a layer the
//! workload does not call reads 0.

use crate::library::KERNEL_CLASSES;

/// The gated end-to-end metrics.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("device_ms", "ms"),
    ("goodput_rps.high", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Request latencies, measured untraced beside the end-to-end metrics.
/// Their spread between seeds on a 2-core host (0.2–0.4 of the median
/// on serve-mixed) exceeds any bound the gate allows, so they are
/// printed with every run and reported with the per-layer metrics.
pub const LATENCY: [(&str, &str); 4] = [
    ("req_ms.p50.low", "ms"),
    ("req_ms.p90.low", "ms"),
    ("req_ms.p50.high", "ms"),
    ("req_ms.p90.high", "ms"),
];

/// Algorithm × dataset pairs of the solve workloads.
pub const ALGO_DATASETS: [(&str, &str); 12] = [
    ("bfs", "usa"),
    ("sssp", "usa"),
    ("delta", "usa"),
    ("cc", "usa"),
    ("bfs", "kron"),
    ("bc", "kron"),
    ("cc", "kron"),
    ("pagerank", "kron"),
    ("bfs", "twitter"),
    ("bc", "twitter"),
    ("cc", "twitter"),
    ("pagerank", "twitter"),
];

const LAYER_FIXED: [(&str, &str); 33] = [
    ("gen.build_s", "s"),
    ("graph.upload_ms", "ms"),
    ("graph.device_mb", "MiB"),
    ("algos.wall_per_device", "ratio"),
    ("engine.wall_us_per_superstep", "us"),
    ("sim.launches", "count"),
    ("sim.wall_us_per_launch", "us"),
    ("sim.launch_floor_us", "us"),
    ("sim.accounting_share", "ratio"),
    ("sim.accounting_us_per_launch", "us"),
    ("sim.accounting_ns_per_txn", "ns"),
    ("sim.dram_mb", "MiB"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.atomic_conflict_mcycles", "Mcycles"),
    ("sim.simd_efficiency", "ratio"),
    ("http.health_rtt_us", "us"),
    ("http.overhead_ms", "ms"),
    ("scheduler.queue_wait_ms.p90", "ms"),
    ("scheduler.coalesced_share", "ratio"),
    ("scheduler.batch_lanes_mean", "lanes"),
    ("scheduler.device_ms", "ms"),
    ("scheduler.refused", "count"),
    ("scheduler.jobs_retained", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("registry.write_ms", "ms"),
    ("registry.superseded_reads", "count"),
    ("loadgen.samples.low", "count"),
    ("loadgen.samples.high", "count"),
    ("loadgen.lateness_ms.p90", "ms"),
    ("loadgen.resolution_ms.p90", "ms"),
    ("trace.spans", "count"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LATENCY
        .iter()
        .chain(&LAYER_FIXED)
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (algo, ds) in ALGO_DATASETS {
        out.push((format!("algos.{algo}.{ds}.wall_ms"), "ms"));
        out.push((format!("algos.{algo}.{ds}.device_ms"), "ms"));
        out.push((format!("algos.{algo}.{ds}.supersteps"), "count"));
    }
    for class in KERNEL_CLASSES {
        out.push((format!("sim.kernel_ms.{class}"), "ms"));
    }
    for (name, unit) in END_TO_END.iter().chain(&LATENCY) {
        out.push((format!("trace.overhead.{name}"), unit));
    }
    out
}
