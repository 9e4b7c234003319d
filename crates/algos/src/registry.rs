//! The algorithm table: every algorithm the CLI and the service accept,
//! the properties their callers branch on, and one entry point per
//! execution [`Mode`] that hides each algorithm's own signature (which
//! graph view it reads, its extra parameter, its result type).
//!
//! The typed per-algorithm functions (`bfs::run`, `multi::bfs_multi`,
//! `partitioned::bfs`, …) stay the implementation, and the API for
//! callers that want the concrete result type; the registry only routes
//! to them, so a registry run launches exactly the kernels of the direct
//! call.

use serde::Serialize;
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::graph::{Graph, PartitionedGraph};
use sygraph_core::inspector::OptConfig;
use sygraph_core::types::{VertexId, INF_DIST};
use sygraph_sim::{Queue, SimError, SimResult};

use crate::common::AlgoRun;
use crate::multi::MultiResult;
use crate::partitioned::PartitionedRun;
use crate::{bc, bfs, cc, delta, dobfs, kcore, multi, pagerank, partitioned, sssp, triangles};

/// Every algorithm, named on the wire by [`Algo::label`]. Each runs the
/// module of the same name; `Closeness` and `Reach` are batched only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
    Bc,
    Pagerank,
    Dobfs,
    Delta,
    Triangles,
    Kcore,
    Closeness,
    Reach,
}

/// How an algorithm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One source (or none) on one device.
    Single,
    /// A batch of sources sharing W-lane supersteps on one device.
    Batched,
    /// One source (or none) with the graph sharded across devices.
    Partitioned,
}

/// The parameters only some algorithms read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Bucket width of Δ-stepping.
    pub delta: f32,
    /// Core order of k-core.
    pub k: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { delta: 2.0, k: 2 }
    }
}

/// Per-vertex values of any algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

/// A batched run: one result per source, already in its output shape.
#[derive(Debug, Clone)]
pub struct Batched {
    /// The sources, batch order preserved.
    pub sources: Vec<VertexId>,
    /// Per-source value vectors (closeness: one score per source).
    pub values: serde::Value,
    /// One-line description of the result.
    pub summary: String,
    /// Union supersteps executed, summed over batches.
    pub iterations: u32,
    /// Batches run (`⌈sources / width⌉`).
    pub batches: u32,
    /// Modelled device time of the whole run, in milliseconds.
    pub sim_ms: f64,
}

impl Algo {
    /// Every algorithm, in the order the CLI lists them.
    pub const ALL: [Algo; 11] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Cc,
        Algo::Bc,
        Algo::Pagerank,
        Algo::Dobfs,
        Algo::Delta,
        Algo::Triangles,
        Algo::Kcore,
        Algo::Closeness,
        Algo::Reach,
    ];

    /// Reads a wire name or one of the aliases `pr` and `delta-sssp`.
    pub fn parse(name: &str) -> Option<Algo> {
        let name = match name {
            "pr" => "pagerank",
            "delta-sssp" => "delta",
            other => other,
        };
        Algo::ALL.into_iter().find(|a| a.label() == name)
    }

    /// Canonical wire name.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Bc => "bc",
            Algo::Pagerank => "pagerank",
            Algo::Dobfs => "dobfs",
            Algo::Delta => "delta",
            Algo::Triangles => "triangles",
            Algo::Kcore => "kcore",
            Algo::Closeness => "closeness",
            Algo::Reach => "reach",
        }
    }

    /// Whether the algorithm is rooted (reads a source vertex).
    pub fn needs_source(self) -> bool {
        !matches!(
            self,
            Algo::Cc | Algo::Pagerank | Algo::Triangles | Algo::Kcore
        )
    }

    /// Whether the algorithm is only meaningful on a symmetric
    /// (undirected) input.
    pub fn needs_symmetric(self) -> bool {
        matches!(self, Algo::Cc | Algo::Triangles | Algo::Kcore)
    }

    /// Whether `mode` wants the graph's pull (CSC) view: direction-
    /// optimizing BFS always, batched BC for its in-edge backward sweep.
    pub fn needs_pull(self, mode: Mode) -> bool {
        self == Algo::Dobfs || (self == Algo::Bc && mode == Mode::Batched)
    }

    /// Whether the algorithm runs in `mode`.
    pub fn supports(self, mode: Mode) -> bool {
        match mode {
            Mode::Single => !matches!(self, Algo::Closeness | Algo::Reach),
            Mode::Batched => matches!(self, Algo::Bfs | Algo::Bc | Algo::Closeness | Algo::Reach),
            Mode::Partitioned => matches!(self, Algo::Bfs | Algo::Sssp | Algo::Cc),
        }
    }

    /// Whether single-source runs may be folded into one W-lane pass with
    /// bit-identical per-lane output. BFS only: `bc_multi` matches the
    /// rooted pass to float tolerance, not bit for bit.
    pub fn coalescible(self) -> bool {
        self == Algo::Bfs
    }

    fn unsupported(self, mode: Mode) -> SimError {
        SimError::Unsupported(format!(
            "{mode:?} mode supports {}, not {}",
            mode.names(),
            self.label()
        ))
    }

    /// Runs the algorithm from `src` (ignored when unrooted) on one device.
    pub fn run_single(
        self,
        q: &Queue,
        g: &Graph,
        src: VertexId,
        params: Params,
        opts: &OptConfig,
    ) -> SimResult<AlgoRun<Values>> {
        use Values::{F32, U32};
        Ok(match self {
            Algo::Bfs => bfs::run(q, g, src, opts)?.map(U32),
            Algo::Sssp => sssp::run(q, &g.csr, src, opts)?.map(F32),
            Algo::Cc => cc::run(q, g, opts)?.map(U32),
            Algo::Bc => bc::run(q, &g.csr, src, opts)?.map(F32),
            Algo::Pagerank => pagerank::run(q, &g.csr, opts, Default::default())?.map(F32),
            Algo::Dobfs => dobfs::run(q, g, src, opts)?.map(U32),
            Algo::Delta => delta::run(q, &g.csr, src, opts, params.delta)?.map(F32),
            Algo::Triangles => triangles::run(q, &g.csr, opts)?.map(U32),
            Algo::Kcore => kcore::run(q, &g.csr, params.k, opts)?.map(U32),
            Algo::Closeness | Algo::Reach => return Err(self.unsupported(Mode::Single)),
        })
    }

    /// Runs the algorithm from every source in `sources`, `width` lanes
    /// per pass.
    pub fn run_batched(
        self,
        q: &Queue,
        g: &Graph,
        sources: &[VertexId],
        width: u32,
        opts: &OptConfig,
    ) -> SimResult<Batched> {
        let n = g.vertex_count();
        Ok(match self {
            Algo::Bfs => {
                let r = multi::bfs_multi(q, &g.csr, sources, width, opts)?;
                let reached = count_all(&r.per_source, |&d| d != INF_DIST);
                let k = r.sources.len();
                batched(
                    format!("{k} sources, {reached}/{} vertices reached in total", n * k),
                    r,
                )
            }
            Algo::Bc => {
                let r = multi::bc_multi(q, g, sources, width, opts)?;
                let max = r.per_source.iter().flatten().copied().fold(0f32, f32::max);
                batched(
                    format!("{} sources, max dependency {max:.4}", r.sources.len()),
                    r,
                )
            }
            Algo::Closeness => {
                let r = multi::closeness_multi(q, &g.csr, sources, width, opts)?;
                let max = r.scores.iter().copied().fold(0f32, f32::max);
                Batched {
                    summary: format!("{} sources, max closeness {max:.4}", r.sources.len()),
                    values: r.scores.serialize_value(),
                    sources: r.sources,
                    iterations: r.iterations,
                    batches: sources.len().div_ceil(width as usize) as u32,
                    sim_ms: r.sim_ms,
                }
            }
            Algo::Reach => {
                let r = multi::reachability_multi(q, &g.csr, sources, width, opts)?;
                let reached = count_all(&r.per_source, |&x| x);
                let k = r.sources.len();
                batched(
                    format!("{k} sources, {reached} (source, vertex) pairs reachable"),
                    r,
                )
            }
            _ => return Err(self.unsupported(Mode::Batched)),
        })
    }

    /// Runs the algorithm from `src` (ignored when unrooted) on the shards
    /// of `pg`, one queue per partition.
    pub fn run_partitioned(
        self,
        queues: &[Queue],
        pg: &PartitionedGraph,
        src: VertexId,
        opts: &OptConfig,
        excfg: ExchangeConfig,
    ) -> SimResult<PartitionedRun<Values>> {
        Ok(match self {
            Algo::Bfs => partitioned::bfs(queues, pg, src, opts, excfg)?.map(Values::U32),
            Algo::Sssp => partitioned::sssp(queues, pg, src, opts, excfg)?.map(Values::F32),
            Algo::Cc => partitioned::cc(queues, pg, opts, excfg)?.map(Values::U32),
            _ => return Err(self.unsupported(Mode::Partitioned)),
        })
    }
}

impl Mode {
    /// The names of the algorithms that run in this mode, `|`-separated.
    pub fn names(self) -> String {
        let names: Vec<&str> = Algo::ALL
            .iter()
            .filter(|a| a.supports(self))
            .map(|a| a.label())
            .collect();
        names.join("|")
    }
}

fn count_all<T>(per_source: &[Vec<T>], pred: impl Fn(&T) -> bool) -> usize {
    per_source.iter().flatten().filter(|x| pred(x)).count()
}

fn batched<T: Serialize>(summary: String, r: MultiResult<T>) -> Batched {
    Batched {
        values: r.per_source.serialize_value(),
        summary,
        sources: r.sources,
        iterations: r.iterations,
        batches: r.batches,
        sim_ms: r.sim_ms,
    }
}

impl Values {
    pub fn len(&self) -> usize {
        match self {
            Values::U32(v) => v.len(),
            Values::F32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact bit-level equality (distinguishes NaN payloads and signed
    /// zeros, unlike `PartialEq` on floats).
    pub fn bits_eq(&self, other: &Values) -> bool {
        match (self, other) {
            (Values::U32(a), Values::U32(b)) => a == b,
            (Values::F32(a), Values::F32(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }

    /// One-line description: reached vertices of integer results
    /// (`INF_DIST` = unreached), finite count and maximum of float ones.
    pub fn summary(&self) -> String {
        match self {
            Values::U32(v) => {
                let reached = v.iter().filter(|&&d| d != INF_DIST).count();
                format!("{reached}/{} vertices reached", v.len())
            }
            Values::F32(v) => {
                let finite = v.iter().filter(|x| x.is_finite()).count();
                let max = v
                    .iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .fold(0f32, f32::max);
                format!("{finite}/{} finite values, max {max:.4}", v.len())
            }
        }
    }
}

// Hand-written so the wire shape is a flat array (`"values": [...]`), not
// the derive's `{"U32": [...]}` tagging.
impl Serialize for Values {
    fn serialize_value(&self) -> serde::Value {
        match self {
            Values::U32(v) => v.serialize_value(),
            Values::F32(v) => v.serialize_value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_round_trip() {
        for a in Algo::ALL {
            assert_eq!(Algo::parse(a.label()), Some(a));
        }
        assert_eq!(Algo::parse("pr"), Some(Algo::Pagerank));
        assert_eq!(Algo::parse("delta-sssp"), Some(Algo::Delta));
        assert_eq!(Algo::parse("tarjan"), None);
        assert_eq!(Algo::parse("Bfs"), None);
    }

    #[test]
    fn mode_tables() {
        assert_eq!(
            Mode::Single.names(),
            "bfs|sssp|cc|bc|pagerank|dobfs|delta|triangles|kcore"
        );
        assert_eq!(Mode::Batched.names(), "bfs|bc|closeness|reach");
        assert_eq!(Mode::Partitioned.names(), "bfs|sssp|cc");
        let coalescible: Vec<Algo> = Algo::ALL.into_iter().filter(|a| a.coalescible()).collect();
        assert_eq!(coalescible, [Algo::Bfs]);
    }

    #[test]
    fn values_serialize_flat() {
        let v = Values::U32(vec![1, 2, 3]);
        assert_eq!(v.serialize_value(), vec![1u32, 2, 3].serialize_value());
    }

    #[test]
    fn float_bit_identity_is_stricter_than_eq() {
        let a = Values::F32(vec![0.0]);
        let b = Values::F32(vec![-0.0]);
        assert_eq!(a, b);
        assert!(!a.bits_eq(&b));
    }
}
