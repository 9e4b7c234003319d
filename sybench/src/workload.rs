//! The workloads' inputs, made from `--seed` alone: the solve job lists,
//! the serve schedule and the write perturbations. Dataset generator
//! seeds stay fixed; the seed picks sources, order and arrival times.

use sygraph_algos::reference;
use sygraph_core::graph::CsrHost;
use sygraph_core::INF_DIST;

use crate::rng::Rng;

/// One algorithm the benchmark calls, by its `sygraph_algos` module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algo {
    Bfs,
    Sssp,
    Delta,
    Cc,
    Pagerank,
    Bc,
}

impl Algo {
    /// Module name, also the service's algorithm name.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Delta => "delta",
            Algo::Cc => "cc",
            Algo::Pagerank => "pagerank",
            Algo::Bc => "bc",
        }
    }
}

/// Δ of every Δ-stepping job (the service's default).
pub const DELTA: f32 = 2.0;

/// One job: an algorithm on a named dataset, from a source if rooted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    pub dataset: &'static str,
    pub algo: Algo,
    pub source: Option<u32>,
}

impl Job {
    fn rooted(dataset: &'static str, algo: Algo, source: u32) -> Job {
        Job {
            dataset,
            algo,
            source: Some(source),
        }
    }

    fn unrooted(dataset: &'static str, algo: Algo) -> Job {
        Job {
            dataset,
            algo,
            source: None,
        }
    }
}

// Stream tags: one independent stream per purpose.
const TAG_ROAD_TARGET: u64 = 1;
const TAG_SOURCES: u64 = 2;
const TAG_SCHEDULE: u64 = 3;
const TAG_WRITES: u64 = 4;

/// Sources per road job list (each runs BFS, SSSP and Δ-SSSP).
pub const ROAD_SOURCES: usize = 3;
/// Sources per scale-free dataset (each runs BFS and BC).
pub const SCALEFREE_SOURCES: usize = 3;

/// Largest BFS level reached from `src` (0 when it reaches nothing).
pub fn eccentricity(host: &CsrHost, src: u32) -> u32 {
    reference::bfs(host, src)
        .into_iter()
        .filter(|&d| d != INF_DIST)
        .max()
        .unwrap_or(0)
}

/// Road sources whose eccentricity lies within 5% of the graph's typical
/// eccentricity (the median over a fixed, seed-independent sample). On a
/// road graph a job's superstep count is its source's eccentricity, so
/// the band keeps each list's cost that of a typical source instead of
/// whichever corner or centre the seed lands on.
pub fn road_sources(host: &CsrHost, seed: u64, count: usize) -> Vec<u32> {
    let n = host.vertex_count() as u64;
    let mut fixed = Rng::new(0, TAG_ROAD_TARGET);
    let mut eccs: Vec<u32> = Vec::new();
    while eccs.len() < 15 {
        let e = eccentricity(host, fixed.below(n) as u32);
        if e > 0 {
            eccs.push(e);
        }
    }
    eccs.sort_unstable();
    let target = eccs[eccs.len() / 2];
    let band = (target / 20).max(1);
    let mut rng = Rng::new(seed, TAG_SOURCES);
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.below(n) as u32;
        if !picked.contains(&v) && eccentricity(host, v).abs_diff(target) <= band {
            picked.push(v);
        }
    }
    picked
}

/// Sources whose traversal reaches at least a quarter of the graph: an
/// R-MAT graph has isolated vertices and tiny islands, and a source there
/// would make the job trivially empty.
pub fn reaching_sources(host: &CsrHost, seed: u64, tag: u64, count: usize) -> Vec<u32> {
    let n = host.vertex_count();
    let mut rng = Rng::new(seed, TAG_SOURCES ^ (tag << 8));
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.below(n as u64) as u32;
        if picked.contains(&v) || host.degree(v) == 0 {
            continue;
        }
        let reached = reference::bfs(host, v)
            .iter()
            .filter(|&&d| d != INF_DIST)
            .count();
        if reached * 4 >= n {
            picked.push(v);
        }
    }
    picked
}

/// solve-road: BFS, SSSP and Δ-SSSP from each of [`ROAD_SOURCES`]
/// banded sources on road-USA, then CC.
pub fn solve_road_jobs(usa: &CsrHost, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for s in road_sources(usa, seed, ROAD_SOURCES) {
        for algo in [Algo::Bfs, Algo::Sssp, Algo::Delta] {
            jobs.push(Job::rooted("usa", algo, s));
        }
    }
    jobs.push(Job::unrooted("usa", Algo::Cc));
    jobs
}

/// solve-scalefree: per dataset (kron, then twitter), BFS and BC from
/// each of [`SCALEFREE_SOURCES`] reaching sources, then CC and PageRank.
pub fn solve_scalefree_jobs(kron: &CsrHost, twitter: &CsrHost, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (tag, key, host) in [(1, "kron", kron), (2, "twitter", twitter)] {
        for s in reaching_sources(host, seed, tag, SCALEFREE_SOURCES) {
            jobs.push(Job::rooted(key, Algo::Bfs, s));
            jobs.push(Job::rooted(key, Algo::Bc, s));
        }
        jobs.push(Job::unrooted(key, Algo::Cc));
        jobs.push(Job::unrooted(key, Algo::Pagerank));
    }
    jobs
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// Offered load of one serve phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Low,
    High,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Low => "low",
            Phase::High => "high",
        }
    }
}

/// What a scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /jobs` for this job, then fetch its values.
    Read(Job),
    /// `POST /graphs` re-registering road-CA with the `n`-th weight
    /// perturbation (0-based, in schedule order).
    Write(usize),
}

/// One open-loop request, due `due_s` seconds after the run starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub due_s: f64,
    pub phase: Phase,
    pub op: Op,
}

/// The vertices serve-mixed draws its sources from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePools {
    /// Single-source BFS on kron is skewed: most requests go to a small
    /// hot set, which stays cached, and the rest to a long tail, which
    /// misses and coalesces when requests coincide.
    pub kron_hot: Vec<u32>,
    pub kron_tail: Vec<u32>,
    pub kron_bc: Vec<u32>,
    pub ca: Vec<u32>,
}

pub const KRON_HOT: usize = 4;
pub const KRON_TAIL: usize = 384;
pub const KRON_BC_POOL: usize = 2;
pub const CA_POOL: usize = 4;

pub fn serve_pools(kron: &CsrHost, ca: &CsrHost, seed: u64) -> ServePools {
    let kron_sources = reaching_sources(kron, seed, 3, KRON_HOT + KRON_TAIL + KRON_BC_POOL);
    let (hot, rest) = kron_sources.split_at(KRON_HOT);
    let (tail, bc) = rest.split_at(KRON_TAIL);
    ServePools {
        kron_hot: hot.to_vec(),
        kron_tail: tail.to_vec(),
        kron_bc: bc.to_vec(),
        ca: road_sources(ca, seed, CA_POOL),
    }
}

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    KronBfsHot,
    KronBfsTail,
    KronBc,
    KronCc,
    KronPagerank,
    CaBfs,
    CaSssp,
    Write,
}

/// The mix as (weight, class): cached hot reads set the median, tail
/// misses set the p90, and the heavy classes and writes stay a small
/// share above it.
const MIX: [(u32, Class); 8] = [
    (144, Class::KronBfsHot),
    (40, Class::KronBfsTail),
    (3, Class::KronBc),
    (3, Class::KronCc),
    (3, Class::KronPagerank),
    (1, Class::CaBfs),
    (1, Class::CaSssp),
    (3, Class::Write),
];

/// Exact per-class counts of an `n`-request phase (largest remainder),
/// so every seed offers the same mix and only sources and times vary.
fn class_counts(n: usize) -> Vec<(Class, usize)> {
    let total: u32 = MIX.iter().map(|m| m.0).sum();
    let mut counts: Vec<(Class, usize, f64)> = MIX
        .iter()
        .map(|&(w, c)| {
            let exact = n as f64 * w as f64 / total as f64;
            (c, exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let mut short = n - counts.iter().map(|c| c.1).sum::<usize>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| counts[b].2.total_cmp(&counts[a].2).then(a.cmp(&b)));
    for i in order {
        if short == 0 {
            break;
        }
        counts[i].1 += 1;
        short -= 1;
    }
    counts.into_iter().map(|(c, k, _)| (c, k)).collect()
}

/// Blocks the serve run alternates between the low and the high rate.
/// Each rate runs for half the run, spread over the whole run, so a
/// passing disturbance of the host touches both rates alike.
pub const SERVE_BLOCKS: usize = 8;

/// The open-loop schedule over `seconds`: [`SERVE_BLOCKS`] equal blocks
/// alternating low (`low_rps`) and high (`high_rps`), starting low. Each
/// rate offers exactly `round(rate × seconds / 2)` requests at uniform
/// times over its blocks, a Poisson process conditioned on its count,
/// with the same class mix for every seed.
pub fn serve_schedule(
    pools: &ServePools,
    seed: u64,
    seconds: f64,
    low_rps: f64,
    high_rps: f64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, TAG_SCHEDULE);
    let block_s = seconds / SERVE_BLOCKS as f64;
    let mut planned: Vec<(f64, Phase, Class)> = Vec::new();
    for (phase, rate, offset) in [(Phase::Low, low_rps, 0), (Phase::High, high_rps, 1)] {
        let n = (rate * seconds / 2.0).round() as usize;
        let mut classes: Vec<Class> = class_counts(n)
            .into_iter()
            .flat_map(|(c, k)| std::iter::repeat_n(c, k))
            .collect();
        rng.shuffle(&mut classes);
        for class in classes {
            // A uniform time over this rate's blocks.
            let t = rng.unit() * seconds / 2.0;
            let block = (t / block_s).floor();
            let due_s = (2.0 * block + offset as f64) * block_s + (t - block * block_s);
            planned.push((due_s, phase, class));
        }
    }
    planned.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut writes = 0;
    let pick = |rng: &mut Rng, pool: &[u32]| pool[rng.below(pool.len() as u64) as usize];
    planned
        .into_iter()
        .map(|(due_s, phase, class)| {
            let op = match class {
                Class::KronBfsHot => Op::Read(Job::rooted(
                    "kron",
                    Algo::Bfs,
                    pick(&mut rng, &pools.kron_hot),
                )),
                Class::KronBfsTail => Op::Read(Job::rooted(
                    "kron",
                    Algo::Bfs,
                    pick(&mut rng, &pools.kron_tail),
                )),
                Class::KronBc => Op::Read(Job::rooted(
                    "kron",
                    Algo::Bc,
                    pick(&mut rng, &pools.kron_bc),
                )),
                Class::KronCc => Op::Read(Job::unrooted("kron", Algo::Cc)),
                Class::KronPagerank => Op::Read(Job::unrooted("kron", Algo::Pagerank)),
                Class::CaBfs => Op::Read(Job::rooted("ca", Algo::Bfs, pick(&mut rng, &pools.ca))),
                Class::CaSssp => Op::Read(Job::rooted("ca", Algo::Sssp, pick(&mut rng, &pools.ca))),
                Class::Write => {
                    writes += 1;
                    Op::Write(writes - 1)
                }
            };
            Request { due_s, phase, op }
        })
        .collect()
}

/// Number of writes in a schedule.
pub fn write_count(schedule: &[Request]) -> usize {
    schedule
        .iter()
        .filter(|r| matches!(r.op, Op::Write(_)))
        .count()
}

/// Edge weights of the `index`-th road-CA re-registration: the original
/// weights with 2% of the edges rescaled by a factor in `[0.5, 1.5)`.
pub fn perturbed_weights(ca: &CsrHost, seed: u64, index: usize) -> Vec<f32> {
    let mut weights = ca
        .weights
        .clone()
        .expect("road-CA is generated with weights");
    let mut rng = Rng::new(seed, TAG_WRITES ^ ((index as u64 + 1) << 16));
    let m = weights.len() as u64;
    for _ in 0..(m / 50).max(1) {
        let e = rng.below(m) as usize;
        weights[e] *= 0.5 + rng.unit() as f32;
    }
    weights
}
