//! Partitioned multi-device BFS / SSSP / CC.
//!
//! Each algorithm shards the graph with
//! [`PartitionedGraph`](sygraph_core::graph::PartitionedGraph), keeps one
//! state buffer per partition over the *local* ID space (owned prefix +
//! halo tail), and runs the
//! [`MultiDeviceEngine`](sygraph_core::engine::MultiDeviceEngine) BSP
//! loop. Halo entries are *replicas*: the local advance stamps them like
//! any destination, the exchange ships the replica value to the owner,
//! and the owner min-merges. All three algorithms are min-combine
//! fixpoints (BFS level, SSSP distance, CC label), so the merge order
//! never shows in the result — partitioned runs are bit-identical to the
//! single-device reference path (see `tests/multi_device.rs`).
//!
//! The advance functors below are *verbatim* the single-device ones
//! (`bfs.rs`, `sssp.rs`, `cc.rs`), just over local IDs — the partitioned
//! path adds plumbing, never new arithmetic.

use sygraph_core::engine::{
    CheckpointState, HaloLink, MultiDeviceEngine, StepAdvanceDyn, StepComputeDyn, SuperstepExchange,
};
use sygraph_core::frontier::exchange::{ExchangeConfig, ExchangeTally};
use sygraph_core::frontier::Word;
use sygraph_core::graph::{DeviceCsr, DevicePartition, PartitionedGraph};
use sygraph_core::inspector::{inspect, OptConfig, Tuning};
use sygraph_core::types::{VertexId, Weight, INF_DIST, INF_WEIGHT};
use sygraph_sim::{DeviceBuffer, DeviceScalar, ItemCtx, Queue, SimResult};

use crate::common::dispatch_by_word;

/// Result of a partitioned run: the gathered global values plus the
/// exchange accounting the single-device [`crate::common::AlgoResult`]
/// has no place for. `V` is the value container (see
/// [`PartitionedResult`]).
pub struct PartitionedRun<V> {
    /// Per-vertex values in *global* ID order (owner entries; halo
    /// replicas are discarded).
    pub values: V,
    /// Global supersteps until the union frontier emptied.
    pub supersteps: u32,
    /// Simulated wall time: the slowest device's clock delta.
    pub sim_ms: f64,
    /// Exchange totals across the run.
    pub exchange: ExchangeTally,
    /// Per-superstep exchange summaries (supersteps that moved bytes).
    pub per_superstep: Vec<SuperstepExchange>,
    /// Checkpoint resumes taken across all partitions (device-lost
    /// recovery; 0 on a clean run).
    pub resumes: u32,
}

/// A partitioned run with one `T` per vertex.
pub type PartitionedResult<T> = PartitionedRun<Vec<T>>;

impl<V> PartitionedRun<V> {
    /// Converts the values, keeping the run statistics.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> PartitionedRun<U> {
        PartitionedRun {
            values: f(self.values),
            supersteps: self.supersteps,
            sim_ms: self.sim_ms,
            exchange: self.exchange,
            per_superstep: self.per_superstep,
            resumes: self.resumes,
        }
    }
}

/// Per-vertex state of a min-combine fixpoint: it travels the exchange
/// as its raw bits, and the owner keeps the smaller of two values.
trait MinState: DeviceScalar + PartialOrd {
    fn to_wire(self) -> u64;
    fn from_wire(bits: u64) -> Self;
}

impl MinState for u32 {
    fn to_wire(self) -> u64 {
        self as u64
    }
    fn from_wire(bits: u64) -> Self {
        bits as u32
    }
}

impl MinState for f32 {
    fn to_wire(self) -> u64 {
        self.to_bits() as u64
    }
    fn from_wire(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

/// Min-merge link over the per-partition state buffers.
struct MinLink<'a, T: DeviceScalar> {
    state: &'a [DeviceBuffer<T>],
}

impl<T: MinState> HaloLink for MinLink<'_, T> {
    fn replica(&self, part: usize, lid: u32) -> u64 {
        self.state[part].load(lid as usize).to_wire()
    }

    fn merge(&self, part: usize, lid: u32, value: u64) -> bool {
        let v = T::from_wire(value);
        if v < self.state[part].load(lid as usize) {
            self.state[part].store(lid as usize, v);
            true
        } else {
            false
        }
    }
}

type Stamp<T> = fn(&mut ItemCtx<'_>, &DeviceBuffer<T>, u32, VertexId);

/// The per-algorithm half of a partitioned min-fixpoint; [`min_fixpoint`]
/// supplies the shards, the state buffers, the engine and the halo link.
struct Fixpoint<T: DeviceScalar> {
    /// Marker prefix of the partition engines.
    prefix: &'static str,
    /// Rooted runs: the source, whose owner entry starts at zero
    /// (`T::default()`) and which alone seeds the frontier. `None` seeds
    /// every owned vertex.
    source: Option<VertexId>,
    /// Initial local state of one partition.
    init: fn(&Queue, &DevicePartition, &DeviceBuffer<T>),
    /// Advance functor over local IDs: relaxes edge `u → v` of weight
    /// `w`; `true` activates `v`.
    relax: fn(&mut ItemCtx<'_>, &DeviceBuffer<T>, VertexId, VertexId, Weight) -> bool,
    /// Fused compute stamping an activated `v` at superstep `iter`.
    stamp: Option<Stamp<T>>,
    /// Global superstep cap, when tighter than the engine's default.
    max_iters: Option<usize>,
}

/// Runs `fx` to its fixpoint across the partitions of `pg`.
fn min_fixpoint<W: Word, T: MinState>(
    queues: &[Queue],
    pg: &PartitionedGraph,
    excfg: ExchangeConfig,
    fx: &Fixpoint<T>,
    tuning: &Tuning,
) -> SimResult<PartitionedResult<T>> {
    if let Some(src) = fx.source {
        assert!((src as usize) < pg.n, "source out of range");
    }
    let graphs: Vec<DeviceCsr> = pg
        .parts
        .iter()
        .zip(queues)
        .map(|(part, q)| DeviceCsr::upload(q, &part.local_graph))
        .collect::<SimResult<_>>()?;
    // Clock the traversal only: single-device `sim_ms` starts after the
    // caller's graph upload, so the partitioned number must too.
    let t0 = slowest_ns(queues);

    let mut state = Vec::with_capacity(pg.part_count());
    for (part, q) in pg.parts.iter().zip(queues) {
        let d = q.malloc_device::<T>(part.local_len().max(1))?;
        (fx.init)(q, part, &d);
        state.push(d);
    }
    if let Some(src) = fx.source {
        state[pg.owner_of(src) as usize].store(pg.owner_local_of(src) as usize, T::default());
    }

    let ckpt: Vec<Vec<&dyn CheckpointState>> = state
        .iter()
        .map(|d| vec![d as &dyn CheckpointState])
        .collect();
    let mut mde =
        MultiDeviceEngine::<W>::new(pg, queues, &graphs, *tuning, excfg, &ckpt, fx.prefix)?;
    if let Some(cap) = fx.max_iters {
        mde = mde.max_iters(cap);
    }
    match fx.source {
        Some(src) => mde.seed(src),
        None => mde.seed_all_owned(),
    }

    let relax = fx.relax;
    let advances: Vec<Box<StepAdvanceDyn<'_>>> = state
        .iter()
        .map(|d| {
            Box::new(move |l: &mut ItemCtx<'_>, _iter: u32, u, v, _e, w| relax(l, d, u, v, w))
                as Box<StepAdvanceDyn<'_>>
        })
        .collect();
    let computes: Vec<Option<Box<StepComputeDyn<'_>>>> = state
        .iter()
        .map(|d| {
            fx.stamp.map(|stamp| {
                Box::new(move |l: &mut ItemCtx<'_>, iter: u32, v| stamp(l, d, iter, v))
                    as Box<StepComputeDyn<'_>>
            })
        })
        .collect();
    let adv_refs: Vec<&StepAdvanceDyn<'_>> = advances.iter().map(|b| b.as_ref()).collect();
    let comp_refs: Vec<Option<&StepComputeDyn<'_>>> =
        computes.iter().map(|c| c.as_deref()).collect();

    let supersteps = mde.run(&adv_refs, &comp_refs, &MinLink { state: &state })?;
    let locals: Vec<Vec<T>> = state.iter().map(|d| d.to_vec()).collect();
    Ok(PartitionedRun {
        values: pg.gather(&locals),
        supersteps,
        sim_ms: (slowest_ns(queues) - t0) / 1e6,
        exchange: mde.exchange_total(),
        per_superstep: mde.exchange_per_superstep().to_vec(),
        resumes: mde.resumes(),
    })
}

fn slowest_ns(queues: &[Queue]) -> f64 {
    queues.iter().map(|q| q.now_ns()).fold(0.0, f64::max)
}

/// Partitioned BFS from `src`: hop distances, `INF_DIST` when unreached.
/// `queues.len()` must equal `pg.part_count()`.
pub fn bfs(
    queues: &[Queue],
    pg: &PartitionedGraph,
    src: VertexId,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<u32>> {
    let fx = Fixpoint {
        prefix: "mbfs",
        source: Some(src),
        init: |q, _, d| {
            q.fill(d, INF_DIST);
        },
        relax: |l, d, _u, v, _w| l.load_atomic(d, v as usize) == INF_DIST,
        stamp: Some(|l, d, iter, v| l.store_atomic(d, v as usize, iter + 1)),
        max_iters: Some(pg.n + 2),
    };
    let tuning = inspect(queues[0].profile(), opts, pg.n);
    dispatch_by_word!(tuning, min_fixpoint::<u32>(queues, pg, excfg, &fx))
}

/// Partitioned Bellman-Ford SSSP from `src`: weighted distances,
/// `f32::INFINITY` when unreached. Unweighted shards relax unit weights.
pub fn sssp(
    queues: &[Queue],
    pg: &PartitionedGraph,
    src: VertexId,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<f32>> {
    let fx = Fixpoint {
        prefix: "msssp",
        source: Some(src),
        init: |q, _, d| {
            q.fill(d, INF_WEIGHT);
        },
        relax: |l, d, u, v, w| {
            let nd = l.load_atomic(d, u as usize) + w;
            nd < l.fetch_min_f32(d, v as usize, nd)
        },
        stamp: None,
        max_iters: None,
    };
    let tuning = inspect(queues[0].profile(), opts, pg.n);
    dispatch_by_word!(tuning, min_fixpoint::<f32>(queues, pg, excfg, &fx))
}

/// Partitioned label-propagation CC over a symmetric graph: per-vertex
/// minimum-ID component labels. (Plain propagation, not shortcutting —
/// pointer jumping chases label chains through *global* random access,
/// which a shard cannot do; the min-label fixpoint is identical.)
pub fn cc(
    queues: &[Queue],
    pg: &PartitionedGraph,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<u32>> {
    let fx = Fixpoint {
        prefix: "mcc",
        source: None,
        // Every local slot (owned and halo alike) starts as its *global*
        // ID: exactly the single-device `labels[v] = v` seeding.
        init: |_, part, d| d.copy_from_slice(&part.local_to_global),
        relax: |l, d, u, v, _w| {
            let lu = l.load_atomic(d, u as usize);
            lu < l.fetch_min(d, v as usize, lu)
        },
        stamp: None,
        max_iters: None,
    };
    let tuning = inspect(queues[0].profile(), opts, pg.n);
    dispatch_by_word!(tuning, min_fixpoint::<u32>(queues, pg, excfg, &fx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::{CsrHost, PartitionSpec};
    use sygraph_sim::{Device, DeviceProfile};

    fn queues(n: usize) -> Vec<Queue> {
        (0..n)
            .map(|_| Queue::new(Device::new(DeviceProfile::host_test())))
            .collect()
    }

    fn chain_and_branches() -> CsrHost {
        CsrHost::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 5),
                (5, 6),
                (2, 6),
                (6, 7),
            ],
        )
    }

    #[test]
    fn bfs_matches_reference_across_device_counts() {
        let host = chain_and_branches();
        let want = reference::bfs(&host, 0);
        for parts in [1u32, 2, 3, 4] {
            for spec in [PartitionSpec::Hash, PartitionSpec::Range] {
                let pg = PartitionedGraph::build(&host, spec, parts);
                let qs = queues(parts as usize);
                let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
                assert_eq!(got.values, want, "{} × {parts}", spec.label());
            }
        }
    }

    #[test]
    fn single_partition_needs_no_exchange() {
        let host = chain_and_branches();
        let pg = PartitionedGraph::build(&host, PartitionSpec::Hash, 1);
        let qs = queues(1);
        let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
        assert_eq!(got.exchange.bytes, 0);
        assert_eq!(got.exchange.msgs, 0);
        assert!(got.per_superstep.is_empty());
    }

    #[test]
    fn sssp_matches_single_device_bitwise() {
        let host = CsrHost::from_edges_weighted(
            6,
            &[(0, 1), (0, 2), (2, 1), (1, 3), (3, 4), (2, 5), (5, 4)],
            Some(&[10.0, 1.0, 2.0, 1.0, 0.5, 9.0, 0.25]),
        );
        let q1 = queues(1);
        let g = DeviceCsr::upload(&q1[0], &host).unwrap();
        let single = crate::sssp::run(&q1[0], &g, 0, &OptConfig::all()).unwrap();
        for parts in [2u32, 3] {
            let pg = PartitionedGraph::build(&host, PartitionSpec::Range, parts);
            let qs = queues(parts as usize);
            let got = sssp(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
            let a: Vec<u32> = got.values.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = single.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{parts} parts");
        }
    }

    #[test]
    fn cc_matches_reference_on_undirected_graph() {
        let host = CsrHost::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)])
            .to_undirected()
            .unwrap();
        let want = reference::connected_components(&host);
        for spec in [PartitionSpec::Hash, PartitionSpec::Range] {
            let pg = PartitionedGraph::build(&host, spec, 3);
            let qs = queues(3);
            let got = cc(&qs, &pg, &OptConfig::all(), ExchangeConfig::default()).unwrap();
            assert_eq!(got.values, want, "{}", spec.label());
        }
    }

    #[test]
    fn exchange_bytes_flow_on_a_cross_partition_edge() {
        // 0 -> 1 with 0 and 1 on different partitions: one superstep must
        // ship exactly one activation.
        let host = CsrHost::from_edges(2, &[(0, 1)]);
        let pg = PartitionedGraph::build(&host, PartitionSpec::Range, 2);
        let qs = queues(2);
        let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
        assert_eq!(got.values, vec![0, 1]);
        assert_eq!(got.exchange.msgs, 1);
        assert!(got.exchange.bytes > 0);
        assert_eq!(got.per_superstep.len(), 1);
        assert_eq!(got.per_superstep[0].accepted, 1);
        // The sender's profiler carries the ExchangeEvent.
        let evs = qs[pg.owner_of(0) as usize].profiler().exchange_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].msgs, 1);
    }
}
