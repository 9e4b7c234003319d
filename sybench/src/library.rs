//! Calls into the library: uploads, one job on a queue, the host
//! reference for a job, and kernel statistics grouped by class.

use sygraph_algos::{bc, bfs, cc, delta, pagerank, reference, sssp, AlgoResult};
use sygraph_core::graph::{CsrHost, Graph};
use sygraph_core::inspector::OptConfig;
use sygraph_sim::{KernelRecord, Queue, SimResult};

use crate::check;
use crate::workload::{Algo, Job, DELTA};

/// A job's output values.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

/// Output and run metadata of one job.
pub struct Outcome {
    pub values: Values,
    pub sim_ms: f64,
    pub iterations: u32,
}

/// A generated dataset as the library user holds it: the directed CSR
/// and its symmetrized copy (CC needs component semantics).
pub struct HostData {
    pub key: &'static str,
    pub host: CsrHost,
    pub undirected: CsrHost,
}

impl HostData {
    pub fn new(key: &'static str, host: CsrHost) -> HostData {
        let undirected = host
            .to_undirected()
            .expect("generated datasets are structurally valid");
        HostData {
            key,
            host,
            undirected,
        }
    }
}

/// Device copies of one dataset: push view with the lazy pull mirror
/// armed (BFS runs with auto direction), and the symmetrized graph.
pub struct Resident {
    pub key: &'static str,
    pub directed: Graph,
    pub undirected: Graph,
}

impl Resident {
    pub fn upload(q: &Queue, data: &HostData) -> SimResult<Resident> {
        Ok(Resident {
            key: data.key,
            directed: Graph::with_pull(q, &data.host)?,
            undirected: Graph::new(q, &data.undirected)?,
        })
    }

    pub fn device_bytes(&self) -> u64 {
        self.directed.device_bytes() + self.undirected.device_bytes()
    }
}

fn outcome<T>(r: AlgoResult<T>, wrap: impl FnOnce(Vec<T>) -> Values) -> Outcome {
    Outcome {
        values: wrap(r.values),
        sim_ms: r.sim_ms,
        iterations: r.iterations,
    }
}

/// Runs `job` on `r` through the public `sygraph_algos::<algo>::run`.
pub fn run_job(q: &Queue, r: &Resident, job: &Job) -> SimResult<Outcome> {
    let opts = OptConfig::all();
    let src = job.source.unwrap_or(0);
    Ok(match job.algo {
        Algo::Bfs => outcome(bfs::run(q, &r.directed, src, &opts)?, Values::U32),
        Algo::Sssp => outcome(sssp::run(q, &r.directed.csr, src, &opts)?, Values::F32),
        Algo::Delta => outcome(
            delta::run(q, &r.directed.csr, src, &opts, DELTA)?,
            Values::F32,
        ),
        Algo::Cc => outcome(cc::run(q, &r.undirected, &opts)?, Values::U32),
        Algo::Pagerank => outcome(
            pagerank::run(q, &r.directed.csr, &opts, Default::default())?,
            Values::F32,
        ),
        Algo::Bc => outcome(bc::run(q, &r.directed.csr, src, &opts)?, Values::F32),
    })
}

/// PageRank reference iterations: enough to converge far below the
/// check's tolerance, whatever tolerance stopped the device run.
const PAGERANK_REFERENCE_ITERS: u32 = 100;

/// Host reference values of `job` on `host` (directed) / `undirected`.
pub fn reference_for(host: &CsrHost, undirected: &CsrHost, job: &Job) -> Values {
    let src = job.source.unwrap_or(0);
    match job.algo {
        Algo::Bfs => Values::U32(reference::bfs(host, src)),
        Algo::Sssp | Algo::Delta => Values::F32(reference::dijkstra(host, src)),
        Algo::Cc => Values::U32(reference::connected_components(undirected)),
        Algo::Pagerank => Values::F32(reference::pagerank(host, 0.85, PAGERANK_REFERENCE_ITERS)),
        Algo::Bc => Values::F32(reference::betweenness_from(host, src)),
    }
}

/// Whether `got` matches the reference `want` for `algo`.
pub fn matches(algo: Algo, got: &Values, want: &Values) -> bool {
    match (algo, got, want) {
        (Algo::Bfs | Algo::Cc, Values::U32(g), Values::U32(w)) => check::exact(g, w),
        (Algo::Sssp | Algo::Delta, Values::F32(g), Values::F32(w)) => check::distances(g, w),
        (Algo::Pagerank, Values::F32(g), Values::F32(w)) => check::ranks(g, w),
        (Algo::Bc, Values::F32(g), Values::F32(w)) => check::centrality(g, w),
        _ => false,
    }
}

/// Kernel-name classes of `sim.kernel_ms.<class>`.
pub const KERNEL_CLASSES: [&str; 10] = [
    "compaction",
    "advance_push",
    "advance_pull",
    "advance_bucketed",
    "advance_sparse",
    "compute",
    "clear",
    "filter",
    "convert",
    "other",
];

/// Index into [`KERNEL_CLASSES`] of a kernel by its launch name.
pub fn kernel_class(name: &str) -> usize {
    let has = |p: &str| name.contains(p);
    let starts = |p: &str| name.starts_with(p);
    if starts("advance_pull") || has("unvisited") {
        2
    } else if has("advance_bucket")
        || has("advance_small")
        || has("advance_medium")
        || has("advance_large")
    {
        3
    } else if starts("advance_sparse") {
        4
    } else if starts("advance") {
        1
    } else if starts("compute") || starts("pr_") || starts("cc_") || starts("bc_") {
        5
    } else if has("clear") || has("fill") {
        6
    } else if has("compact") || has("layer2") || has("count") || has("collect") || has("scan") {
        0
    } else if starts("filter") {
        7
    } else if has("densify") || has("sparsify") || has("shrink") || has("convert") {
        8
    } else {
        9
    }
}

/// Modelled kernel statistics summed over a set of launches.
#[derive(Debug, Default, Clone)]
pub struct KernelTotals {
    pub launches: u64,
    pub class_ms: [f64; KERNEL_CLASSES.len()],
    pub transactions: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub dram_bytes: u64,
    pub atomic_conflict_cycles: u64,
    pub active_lanes: u64,
    pub lane_slots: u64,
}

impl KernelTotals {
    pub fn add(&mut self, k: &KernelRecord) {
        let t = &k.stats.totals;
        self.launches += 1;
        self.class_ms[kernel_class(&k.name)] += k.stats.total_ns() / 1e6;
        self.transactions += t.transactions();
        self.l1_hits += t.l1_hits;
        self.l2_hits += t.l2_hits;
        self.dram_bytes += t.dram_bytes;
        self.atomic_conflict_cycles += t.atomic_conflict_cycles;
        self.active_lanes += t.active_lanes;
        self.lane_slots += t.lane_slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_fall_into_their_classes() {
        let class = |n: &str| KERNEL_CLASSES[kernel_class(n)];
        assert_eq!(class("frontier_compact"), "compaction");
        assert_eq!(class("advance"), "advance_push");
        assert_eq!(class("advance_pull_small"), "advance_pull");
        assert_eq!(class("advance_bucket_bin"), "advance_bucketed");
        assert_eq!(class("advance_sparse"), "advance_sparse");
        assert_eq!(class("frontier_lazy_clear"), "clear");
        assert_eq!(class("filter_inplace"), "filter");
        assert_eq!(class("frontier_densify"), "convert");
        assert_eq!(class("compute_compacted"), "compute");
        assert_eq!(class("pr_apply"), "compute");
        assert_eq!(class("layer2_fill_all"), "clear");
        assert_eq!(class("layer2_rebuild"), "compaction");
        assert_eq!(class("mystery"), "other");
    }
}
