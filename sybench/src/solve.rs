//! solve-road and solve-scalefree: a seeded job list run serially on one
//! queue through the public `sygraph_algos::<algo>::run` calls.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use sygraph_gen::{datasets, Scale};
use sygraph_sim::{Accounting, Device, DeviceProfile, LaunchConfig, Queue};

use crate::library::{self, HostData, KernelTotals, Resident, Values, KERNEL_CLASSES};
use crate::metrics::LATENCY;
use crate::report::{Metrics, Ops};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::workload::{self, Job};

/// Which solve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solve {
    Road,
    Scalefree,
}

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more while their total stays under
/// `SETUP_BUDGET_S`, so a set-up of milliseconds (road-USA) is timed
/// often enough that one hiccup of the host does not move the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 31;
const SETUP_BUDGET_S: f64 = 1.0;

/// The device every solve runs on.
pub fn profile() -> DeviceProfile {
    DeviceProfile::v100s()
}

fn generate(kind: Solve) -> Vec<HostData> {
    match kind {
        Solve::Road => vec![HostData::new("usa", datasets::road_usa(Scale::Bench).host)],
        Solve::Scalefree => vec![
            HostData::new("kron", datasets::kron(Scale::Bench).host),
            HostData::new("twitter", datasets::twitter(Scale::Bench).host),
        ],
    }
}

fn upload(q: &Queue, data: &[HostData]) -> Vec<Resident> {
    data.iter()
        .map(|d| Resident::upload(q, d).expect("bench-scale graphs fit the device"))
        .collect()
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    /// Per job run: (index into the job list, wall s, modelled ms,
    /// supersteps).
    runs: Vec<(usize, f64, f64, u32)>,
    /// Completion time of each job from the start of its pass, s.
    burst_s: Vec<f64>,
    correct: u64,
    passes: usize,
    /// First pass: Σ modelled ms.
    pass_device_ms: f64,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.1).sum()
    }

    /// Wall s of one pass over the list: the sum over jobs of each job's
    /// median wall time across passes, so a disturbance of the host that
    /// lasts less than half the passes does not move it.
    fn pass_wall_s(&self) -> f64 {
        let jobs = self.runs.len() / self.passes;
        (0..jobs)
            .map(|i| {
                median(
                    &self
                        .runs
                        .iter()
                        .filter(|r| r.0 == i)
                        .map(|r| r.1)
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    }

    fn end_to_end(&self, m: &mut Metrics) {
        let walls_ms: Vec<f64> = self.runs.iter().map(|r| r.1 * 1e3).collect();
        let burst_ms: Vec<f64> = self.burst_s.iter().map(|s| s * 1e3).collect();
        let pass_s = self.pass_wall_s();
        let jobs = (self.runs.len() / self.passes) as f64;
        let correct_share = self.correct as f64 / self.runs.len() as f64;
        m.set("jobs_per_s", jobs / pass_s, "jobs/s");
        m.set("device_ms", self.pass_device_ms, "ms");
        m.set("req_ms.p50.low", median(&walls_ms), "ms");
        m.set("req_ms.p90.low", quantile(&walls_ms, 0.9), "ms");
        m.set("req_ms.p50.high", median(&burst_ms), "ms");
        m.set("req_ms.p90.high", quantile(&burst_ms, 0.9), "ms");
        m.set("goodput_rps.high", jobs * correct_share / pass_s, "req/s");
    }
}

struct Bench<'a> {
    q: &'a Queue,
    residents: &'a [Resident],
    jobs: &'a [Job],
    refs: &'a HashMap<Job, Values>,
}

impl Bench<'_> {
    fn resident(&self, job: &Job) -> &Resident {
        self.residents
            .iter()
            .find(|r| r.key == job.dataset)
            .expect("every job names a resident dataset")
    }

    /// Runs job `i`, timed, then (untimed) checks it and adds the
    /// profiler's records to `kernels`. Returns (wall s, modelled ms,
    /// supersteps, correct).
    fn one(
        &self,
        i: usize,
        tracer: &Tracer,
        kernels: Option<&mut KernelTotals>,
    ) -> (f64, f64, u32, bool) {
        let (q, job) = (self.q, &self.jobs[i]);
        let name = format!("{}.{}", job.algo.label(), job.dataset);
        let (out, wall) = tracer.time("algos", &name, i as u64, || {
            library::run_job(q, self.resident(job), job)
        });
        if let Some(k) = kernels {
            q.profiler().kernels().iter().for_each(|r| k.add(r));
        }
        q.reset();
        match out {
            Ok(o) => (
                wall,
                o.sim_ms,
                o.iterations,
                library::matches(job.algo, &o.values, &self.refs[job]),
            ),
            Err(_) => (wall, 0.0, 0, false),
        }
    }

    /// Whole passes over the job list until `seconds` have elapsed.
    fn measure(&self, seconds: f64, tracer: &Tracer, ops: &mut Ops) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        loop {
            let mut t = 0.0;
            for i in 0..self.jobs.len() {
                let (wall, sim_ms, iters, ok) = self.one(i, tracer, None);
                ops.record(ok);
                phase.correct += ok as u64;
                t += wall;
                phase.burst_s.push(t);
                phase.runs.push((i, wall, sim_ms, iters));
                if phase.passes == 0 {
                    phase.pass_device_ms += sim_ms;
                }
            }
            phase.passes += 1;
            if start.elapsed().as_secs_f64() >= seconds {
                return phase;
            }
        }
    }
}

/// Median wall time of an empty one-workgroup launch, µs.
fn launch_floor_us() -> f64 {
    let q = Queue::new(Device::new(profile()));
    let mut walls = Vec::new();
    for i in 0..220 {
        let t = Instant::now();
        q.launch(LaunchConfig::new("probe_empty", 1, 32, 32), |_| {});
        if i >= 20 {
            walls.push(t.elapsed().as_secs_f64() * 1e6);
        }
        q.reset();
    }
    median(&walls)
}

/// Runs a solve workload. Returns the operations, the metrics (end to
/// end untraced, per layer traced) and the tracer.
pub fn run(kind: Solve, seed: u64, seconds: f64, traced: bool) -> (Ops, Metrics, Tracer) {
    let tracer = Tracer::new(traced);
    let (mut gen_s, mut upload_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for rep in 0..MAX_SETUPS {
        if rep >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        drop(state.take());
        let (data, g) = tracer.time("gen", "generate", rep as u64, || generate(kind));
        let q = Queue::new(Device::new(profile()));
        let (residents, u) = tracer.time("graph", "upload", rep as u64, || upload(&q, &data));
        gen_s.push(g);
        upload_s.push(u);
        setup_s.push(g + u);
        state = Some((data, q, residents));
    }
    let (data, q, residents) = state.expect("at least one set-up");

    let jobs = match kind {
        Solve::Road => workload::solve_road_jobs(&data[0].host, seed),
        Solve::Scalefree => workload::solve_scalefree_jobs(&data[0].host, &data[1].host, seed),
    };
    let host_of = |job: &Job| {
        data.iter()
            .find(|d| d.key == job.dataset)
            .expect("known dataset")
    };
    let refs: HashMap<Job, Values> = jobs
        .iter()
        .map(|j| {
            let d = host_of(j);
            (*j, library::reference_for(&d.host, &d.undirected, j))
        })
        .collect();
    let bench = Bench {
        q: &q,
        residents: &residents,
        jobs: &jobs,
        refs: &refs,
    };

    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let quiet = Tracer::new(false);
    let plain = bench.measure(seconds, &quiet, &mut ops);
    let mut e2e = Metrics::default();
    plain.end_to_end(&mut e2e);
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "{} jobs in {} passes of {}, {:.2} s of job wall time",
        plain.runs.len(),
        plain.passes,
        jobs.len(),
        plain.wall_s()
    );
    if !traced {
        return (ops, e2e, tracer);
    }

    // Traced run: the same phase again with spans on.
    let phase = bench.measure(seconds, &tracer, &mut ops);
    let mut traced_e2e = Metrics::default();
    phase.end_to_end(&mut traced_e2e);
    traced_e2e.set("setup_s", median(&setup_s), "s");
    traced_e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    for (name, unit) in LATENCY {
        metrics.set(name, e2e.get(name).unwrap_or(f64::NAN), unit);
    }
    for (name, value, unit) in traced_e2e.iter() {
        let base = e2e.get(name).unwrap_or(f64::NAN);
        metrics.set(format!("trace.overhead.{name}"), value - base, unit);
    }

    metrics.set("gen.build_s", median(&gen_s), "s");
    metrics.set("graph.upload_ms", median(&upload_s) * 1e3, "ms");
    let device_bytes: u64 = residents.iter().map(Resident::device_bytes).sum();
    metrics.set(
        "graph.device_mb",
        device_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );

    let mut by_name: BTreeMap<String, Vec<(f64, f64, u32)>> = BTreeMap::new();
    for &(i, wall, sim, iters) in &phase.runs {
        let job = &jobs[i];
        let key = format!("algos.{}.{}", job.algo.label(), job.dataset);
        by_name.entry(key).or_default().push((wall, sim, iters));
    }
    for (name, runs) in &by_name {
        let col = |f: fn(&(f64, f64, u32)) -> f64| runs.iter().map(f).collect::<Vec<_>>();
        metrics.set(format!("{name}.wall_ms"), median(&col(|r| r.0 * 1e3)), "ms");
        metrics.set(format!("{name}.device_ms"), median(&col(|r| r.1)), "ms");
        metrics.set(
            format!("{name}.supersteps"),
            median(&col(|r| r.2 as f64)),
            "count",
        );
    }
    let wall_ms: f64 = phase.wall_s() * 1e3;
    let sim_ms: f64 = phase.runs.iter().map(|r| r.2).sum();
    let steps: f64 = phase.runs.iter().map(|r| r.3 as f64).sum();
    metrics.set("algos.wall_per_device", wall_ms / sim_ms, "ratio");
    metrics.set("engine.wall_us_per_superstep", wall_ms * 1e3 / steps, "us");
    library_probes(&data, &jobs, &refs, &tracer, &mut ops, &mut metrics);
    (ops, metrics, tracer)
}

/// Library-level probes over one pass of `jobs`: the empty-launch
/// floor, then the pass on a fresh `Accounting::Full` queue (its kernel
/// statistics) and on a fresh `Accounting::Off` queue (the accounting
/// share). Returns the Full queue's upload wall s and resident bytes.
pub fn library_probes(
    data: &[HostData],
    jobs: &[Job],
    refs: &HashMap<Job, Values>,
    tracer: &Tracer,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> (f64, u64) {
    metrics.set("sim.launch_floor_us", launch_floor_us(), "us");
    let mut walls = [0.0; 2];
    let mut kernels = KernelTotals::default();
    let mut full_upload = (0.0, 0);
    for (i, accounting) in [Accounting::Full, Accounting::Off].into_iter().enumerate() {
        let q = Queue::with_accounting(Device::new(profile()), accounting);
        let (residents, upload_s) = tracer.time("graph", "upload", i as u64, || upload(&q, data));
        let bench = Bench {
            q: &q,
            residents: &residents,
            jobs,
            refs,
        };
        for j in 0..jobs.len() {
            let k = (accounting == Accounting::Full).then_some(&mut kernels);
            let (wall, _, _, ok) = bench.one(j, tracer, k);
            ops.record(ok);
            walls[i] += wall;
        }
        if accounting == Accounting::Full {
            full_upload = (upload_s, residents.iter().map(Resident::device_bytes).sum());
        }
    }
    let [full, off] = walls;
    let k = &kernels;
    let launches = k.launches as f64;
    metrics.set("sim.launches", launches, "count");
    metrics.set("sim.wall_us_per_launch", full * 1e6 / launches, "us");
    metrics.set("sim.accounting_share", 1.0 - off / full, "ratio");
    metrics.set(
        "sim.accounting_us_per_launch",
        (full - off) * 1e6 / launches,
        "us",
    );
    metrics.set(
        "sim.accounting_ns_per_txn",
        (full - off) * 1e9 / k.transactions as f64,
        "ns",
    );
    for (c, name) in KERNEL_CLASSES.iter().enumerate() {
        metrics.set(format!("sim.kernel_ms.{name}"), k.class_ms[c], "ms");
    }
    metrics.set("sim.dram_mb", k.dram_bytes as f64 / (1 << 20) as f64, "MiB");
    metrics.set(
        "sim.l1_hit_rate",
        k.l1_hits as f64 / k.transactions as f64,
        "ratio",
    );
    metrics.set(
        "sim.l2_hit_rate",
        k.l2_hits as f64 / (k.transactions - k.l1_hits) as f64,
        "ratio",
    );
    metrics.set(
        "sim.atomic_conflict_mcycles",
        k.atomic_conflict_cycles as f64 / 1e6,
        "Mcycles",
    );
    metrics.set(
        "sim.simd_efficiency",
        k.active_lanes as f64 / k.lane_slots as f64,
        "ratio",
    );
    full_upload
}

/// Runs `job` `runs` times, each on a fresh device with a fresh upload,
/// and returns each run's modelled ms and a fingerprint of its values'
/// bits: the run-to-run spread of modelled time and results.
pub fn repeat_identical(data: &HostData, job: &Job, runs: usize) -> Vec<(f64, u64)> {
    use std::hash::{DefaultHasher, Hash, Hasher};
    (0..runs)
        .map(|_| {
            let q = Queue::new(Device::new(profile()));
            let r = Resident::upload(&q, data).expect("bench-scale graphs fit the device");
            let out = library::run_job(&q, &r, job).expect("the job runs");
            let mut h = DefaultHasher::new();
            match &out.values {
                Values::U32(v) => v.hash(&mut h),
                Values::F32(v) => v.iter().for_each(|x| x.to_bits().hash(&mut h)),
            }
            (out.sim_ms, h.finish())
        })
        .collect()
}
