//! serve-mixed: `Service` + `HttpServer` with resident kron and road-CA,
//! driven open-loop by a seeded schedule at two absolute rates. One
//! generator thread sends `POST /jobs?values=1` (a cache hit answers
//! with its values) and the `POST /graphs` writes on schedule; the
//! calling thread collects the queued jobs' values with
//! `GET /jobs/<id>?wait=1`, in submission order. Every answer is checked.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use sygraph_core::graph::CsrHost;
use sygraph_gen::{datasets, Scale};
use sygraph_service::{
    HttpServer, JobRecord, JobRequest, JobState, JobValues, RegisterOptions, Service,
    ServiceConfig, StatsSnapshot,
};

use crate::http;
use crate::library::{self, HostData, Values};
use crate::metrics::LATENCY;
use crate::report::{Metrics, Ops};
use crate::solve;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::workload::{self, Algo, Job, Op, Phase, Request, ServePools};

/// Service workers (each owns one simulated device queue).
pub const WORKERS: usize = 2;
/// Result-cache entries: fewer than the schedule's distinct keys, so
/// eviction is live.
pub const CACHE_ENTRIES: usize = 96;
/// Offered rates of the two phases, requests per second. Calibrated
/// once from the mix as served; fixed so a slower service shows as
/// higher latency and lower goodput, not as a lighter load.
pub const LOW_RPS: f64 = 14.0;
pub const HIGH_RPS: f64 = 28.0;
/// Latency limit of `goodput_rps.high`.
pub const LIMIT_MS: f64 = 250.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn config() -> ServiceConfig {
    ServiceConfig {
        profile: solve::profile(),
        workers: WORKERS,
        cache_entries: CACHE_ENTRIES,
        ..ServiceConfig::default()
    }
}

/// A running service with its HTTP front end.
struct Env {
    service: Arc<Service>,
    server: HttpServer,
    /// Version of road-CA as first registered.
    ca_version: u64,
}

impl Env {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn stop(mut self) {
        self.server.shutdown();
        self.service.drain(Duration::from_secs(30));
    }
}

/// Generates the datasets, starts the service and its HTTP server,
/// registers kron (symmetrized, pull mirror warm) and road-CA, and warms
/// up: both workers upload both mirrors, and the kron results the mix
/// keeps hot (PageRank, CC, BC from the pool) enter the cache. Returns
/// the env, generator wall s and set-up s.
fn setup(tracer: &Tracer, rep: u64, pools: &ServePools) -> (Env, f64, f64) {
    let start = Instant::now();
    let ((kron, ca), gen_s) = tracer.time("gen", "generate", rep, || {
        (
            datasets::kron(Scale::Bench).host,
            datasets::road_ca(Scale::Bench).host,
        )
    });
    let service = Arc::new(Service::start(config()).expect("service starts"));
    let server = HttpServer::serve(service.clone(), "127.0.0.1:0").expect("bind a local port");
    let ((), _) = tracer.time("registry", "register", rep, || {
        let sym = RegisterOptions {
            undirected: true,
            pull: true,
        };
        service
            .register_graph("kron", kron.clone(), sym)
            .expect("register kron");
    });
    let (ca_graph, _) = tracer.time("registry", "register", rep, || {
        service
            .register_graph("ca", ca.clone(), RegisterOptions::default())
            .expect("register road-CA")
    });
    tracer.time("scheduler", "warm-up", rep, || {
        let mut ids: Vec<u64> = ["kron", "kron", "ca", "ca"]
            .iter()
            .map(|g| {
                let mut req = JobRequest::rooted(g, "bfs", 0);
                req.no_cache = Some(true);
                req.no_coalesce = Some(true);
                service.submit(req).expect("warm-up submit")
            })
            .collect();
        let mut hot: Vec<JobRequest> = ["pagerank", "cc"]
            .iter()
            .map(|algo| JobRequest::unrooted("kron", algo))
            .collect();
        hot.extend(
            pools
                .kron_bc
                .iter()
                .map(|&s| JobRequest::rooted("kron", "bc", s)),
        );
        for req in hot {
            ids.push(service.submit(req).expect("warm-up submit"));
        }
        for id in ids {
            service.wait(id);
        }
    });
    let env = Env {
        service,
        server,
        ca_version: ca_graph.version,
    };
    (env, gen_s, start.elapsed().as_secs_f64())
}

/// The graphs as the service holds them (kron symmetrized) and the
/// seeded source pools; made outside the timed set-up.
fn graphs_and_pools(seed: u64) -> (CsrHost, CsrHost, ServePools) {
    let kron = datasets::kron(Scale::Bench)
        .host
        .to_undirected()
        .expect("kron is valid");
    let ca = datasets::road_ca(Scale::Bench).host;
    let pools = workload::serve_pools(&kron, &ca, seed);
    (kron, ca, pools)
}

/// The inputs of one schedule: write payloads and expected values.
struct Inputs {
    schedule: Vec<Request>,
    /// Weights of the n-th write, as the server parses them.
    write_weights: Vec<Vec<f32>>,
    /// `POST /graphs` bodies of the writes.
    write_bodies: Vec<String>,
    /// Expected values by (job, road-CA version index); kron jobs and
    /// road-CA BFS (weight-independent) use index 0.
    refs: HashMap<(Job, usize), Values>,
}

fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Road-CA with other edge weights.
fn reweighted(ca: &CsrHost, weights: &[f32]) -> CsrHost {
    CsrHost {
        weights: Some(weights.to_vec()),
        ..ca.clone()
    }
}

fn inputs(kron: &CsrHost, ca: &CsrHost, pools: &ServePools, seed: u64, seconds: f64) -> Inputs {
    let schedule = workload::serve_schedule(pools, seed, seconds, LOW_RPS, HIGH_RPS);
    let writes = workload::write_count(&schedule);
    let write_weights: Vec<Vec<f32>> = (0..writes)
        .map(|j| {
            workload::perturbed_weights(ca, seed, j)
                .into_iter()
                .map(|w| {
                    format!("{w}")
                        .parse::<f64>()
                        .expect("a printed float parses") as f32
                })
                .collect()
        })
        .collect();
    let write_bodies = write_weights
        .iter()
        .map(|w| {
            format!(
                "{{\"name\":\"ca\",\"offsets\":[{}],\"targets\":[{}],\"weights\":[{}]}}",
                join(&ca.offsets),
                join(&ca.indices),
                join(w),
            )
        })
        .collect();
    let mut refs = HashMap::new();
    for r in &schedule {
        let Op::Read(job) = r.op else { continue };
        let versions = if job.dataset == "ca" && job.algo == Algo::Sssp {
            writes + 1
        } else {
            1
        };
        for v in 0..versions {
            refs.entry((job, v)).or_insert_with(|| match job.dataset {
                "kron" => library::reference_for(kron, kron, &job),
                _ if v == 0 => library::reference_for(ca, ca, &job),
                _ => {
                    let host = reweighted(ca, &write_weights[v - 1]);
                    library::reference_for(&host, &host, &job)
                }
            });
        }
    }
    Inputs {
        schedule,
        write_weights,
        write_bodies,
        refs,
    }
}

/// How the generator reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Http,
    InProcess,
}

/// One read request's outcome.
struct Sample {
    phase: Phase,
    job: Job,
    /// Due time to the last byte of the values, ms; `None` if refused.
    latency_ms: Option<f64>,
    correct: bool,
}

/// One drive of the schedule.
struct Drive {
    samples: Vec<Sample>,
    /// Reads resubmitted because a write superseded their graph version
    /// before they ran.
    superseded: u64,
    write_ms: Vec<f64>,
    writes_failed: u64,
    lateness_ms: Vec<f64>,
    /// Per collected job: an upper bound on how late its completion was
    /// seen (0 when the collector was already waiting on it).
    resolution_ms: Vec<f64>,
    span_s: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

fn job_body(job: &Job) -> String {
    match job.source {
        Some(s) => format!(
            "{{\"graph\":\"{}\",\"algo\":\"{}\",\"source\":{s}}}",
            job.dataset,
            job.algo.label()
        ),
        None => format!(
            "{{\"graph\":\"{}\",\"algo\":\"{}\"}}",
            job.dataset,
            job.algo.label()
        ),
    }
}

fn value_list(v: Option<&Value>, algo: Algo) -> Option<Values> {
    let Some(Value::Array(items)) = v else {
        return None;
    };
    let num = |x: &Value| match x {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        Value::Null => Some(f64::INFINITY),
        _ => None,
    };
    match algo {
        Algo::Bfs | Algo::Cc => items
            .iter()
            .map(|x| num(x).map(|f| f as u32))
            .collect::<Option<_>>()
            .map(Values::U32),
        _ => items
            .iter()
            .map(|x| num(x).map(|f| f as f32))
            .collect::<Option<_>>()
            .map(Values::F32),
    }
}

fn str_field(doc: &Value, name: &str) -> Option<String> {
    match doc.get_field(name) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn u64_field(doc: &Value, name: &str) -> Option<u64> {
    match doc.get_field(name) {
        Some(Value::Int(v)) if *v >= 0 => Some(*v as u64),
        Some(Value::UInt(v)) => Some(*v),
        _ => None,
    }
}

/// Why a job does not count as answered.
enum Fetch {
    /// A write superseded the graph version before the job ran; the
    /// generator resubmits, as a client would.
    Superseded,
    Failed(String),
}

/// A failed job whose graph version was superseded before it ran.
fn is_superseded(state: Option<&str>, kind: Option<&str>) -> bool {
    state == Some("Failed") && kind == Some("not-found")
}

impl Inputs {
    /// Index of a road-CA version relative to the first registration.
    fn expected(&self, job: &Job, version: u64, env: &Env) -> Option<&Values> {
        let v = match (job.dataset, job.algo) {
            ("ca", Algo::Sssp) => version.checked_sub(env.ca_version)? as usize,
            _ => 0,
        };
        self.refs.get(&(*job, v))
    }

    /// Checks a job record as JSON.
    fn check_doc(&self, job: &Job, doc: &Value, env: &Env) -> Result<(), Fetch> {
        let state = str_field(doc, "state");
        if state.as_deref() != Some("Done") {
            if is_superseded(state.as_deref(), str_field(doc, "error_kind").as_deref()) {
                return Err(Fetch::Superseded);
            }
            return Err(Fetch::Failed(format!(
                "state {state:?}, error {:?}",
                str_field(doc, "error")
            )));
        }
        let version =
            u64_field(doc, "graph_version").ok_or(Fetch::Failed("no graph_version".into()))?;
        let want = self
            .expected(job, version, env)
            .ok_or(Fetch::Failed(format!(
                "no reference for graph version {version}"
            )))?;
        let got = value_list(doc.get_field("values"), job.algo)
            .ok_or(Fetch::Failed("no values".into()))?;
        if library::matches(job.algo, &got, want) {
            Ok(())
        } else {
            Err(Fetch::Failed(format!(
                "values differ from the reference (graph version {version})"
            )))
        }
    }

    /// Checks an in-process job record.
    fn check_record(&self, job: &Job, rec: &JobRecord, env: &Env) -> Result<(), Fetch> {
        if rec.state != JobState::Done {
            let state = format!("{:?}", rec.state);
            if is_superseded(Some(&state), rec.error_kind.as_deref()) {
                return Err(Fetch::Superseded);
            }
            return Err(Fetch::Failed(format!(
                "state {state}, error {:?}",
                rec.error
            )));
        }
        let got = match &rec.values {
            Some(JobValues::U32(v)) => Values::U32(v.clone()),
            Some(JobValues::F32(v)) => Values::F32(v.clone()),
            None => return Err(Fetch::Failed("no values".into())),
        };
        match self.expected(job, rec.graph_version, env) {
            Some(want) if library::matches(job.algo, &got, want) => Ok(()),
            _ => Err(Fetch::Failed(format!(
                "values differ from the reference (graph version {})",
                rec.graph_version
            ))),
        }
    }
}

/// A submission's immediate answer.
enum Submitted {
    /// The values came back with the submission (a cache hit), checked.
    Answered(Result<(), Fetch>),
    /// Queued as this job id.
    Queued(u64),
    Refused,
}

/// Submits `job` asking for its values: a cache hit answers at once.
fn submit(
    mode: Mode,
    env: &Env,
    inputs: &Inputs,
    job: &Job,
    tracer: &Tracer,
    k: usize,
) -> Submitted {
    match mode {
        Mode::Http => {
            let (res, _) = tracer.time("http", "POST /jobs", k as u64, || {
                http::request(
                    env.addr(),
                    "POST",
                    "/jobs?values=1",
                    job_body(job).as_bytes(),
                )
            });
            let Ok((200 | 202, body)) = res else {
                return Submitted::Refused;
            };
            let Ok(doc) = serde_json::from_str::<Value>(&String::from_utf8_lossy(&body)) else {
                return Submitted::Refused;
            };
            match (str_field(&doc, "state").as_deref(), u64_field(&doc, "id")) {
                (Some("Done"), _) => Submitted::Answered(inputs.check_doc(job, &doc, env)),
                (_, Some(id)) => Submitted::Queued(id),
                _ => Submitted::Refused,
            }
        }
        Mode::InProcess => {
            let mut req = JobRequest::unrooted(job.dataset, job.algo.label());
            req.source = job.source;
            let (res, _) = tracer.time("scheduler", "submit", k as u64, || env.service.submit(req));
            match res.map(|id| (id, env.service.job(id))) {
                Ok((_, Some(rec))) if rec.state == JobState::Done => {
                    Submitted::Answered(inputs.check_record(job, &rec, env))
                }
                Ok((id, _)) => Submitted::Queued(id),
                Err(_) => Submitted::Refused,
            }
        }
    }
}

/// Waits for job `id` and checks its values. Returns the verdict and
/// the instant the values arrived.
fn fetch(
    mode: Mode,
    env: &Env,
    inputs: &Inputs,
    job: &Job,
    id: u64,
    tracer: &Tracer,
    k: usize,
) -> (Result<(), Fetch>, Instant) {
    match mode {
        Mode::Http => {
            let start = Instant::now();
            let res = http::request(env.addr(), "GET", &format!("/jobs/{id}?wait=1"), b"");
            let done = Instant::now();
            tracer.record("http", "GET /jobs/<id>?wait=1", k as u64, start, done);
            let verdict = match res {
                Ok((_, body)) => {
                    match serde_json::from_str::<Value>(&String::from_utf8_lossy(&body)) {
                        Ok(doc) => inputs.check_doc(job, &doc, env),
                        Err(e) => Err(Fetch::Failed(format!("unparsable body: {e}"))),
                    }
                }
                Err(e) => Err(Fetch::Failed(e.to_string())),
            };
            (verdict, done)
        }
        Mode::InProcess => {
            let rec = env.service.wait(id);
            let done = Instant::now();
            let verdict = match rec {
                Some(r) => inputs.check_record(job, &r, env),
                None => Err(Fetch::Failed("unknown job id".into())),
            };
            (verdict, done)
        }
    }
}

/// What the sender measured.
#[derive(Default)]
struct SenderSide {
    samples: Vec<Sample>,
    lateness_ms: Vec<f64>,
    write_ms: Vec<f64>,
    writes_failed: u64,
}

/// Reads whose graph version a write superseded before they ran are
/// resubmitted at most this many times.
const MAX_RESUBMITS: u32 = 10;

/// A queued job handed from the sender to the collector.
struct Queued {
    k: usize,
    due: Instant,
    /// When the submission's response arrived.
    posted: Instant,
    id: u64,
}

/// Drives the schedule against `env`: the sender submits on schedule
/// and records cache hits, which answer with the submission; the
/// collector waits for queued jobs in submission order. Spans: the
/// POSTs, the GETs and each read's due-to-values interval, with the
/// request's index as the job id.
fn drive(
    env: &Env,
    ca: &CsrHost,
    inputs: &Inputs,
    mode: Mode,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Drive {
    let before = env.service.stats();
    let t0 = Instant::now() + Duration::from_millis(20);
    let schedule = &inputs.schedule;
    let (tx, rx) = mpsc::channel::<Queued>();
    let mut samples = Vec::new();
    let mut superseded = 0;
    let mut resolution_ms = Vec::new();
    let read = |k: usize| match schedule[k].op {
        Op::Read(job) => job,
        Op::Write(_) => unreachable!("only reads are sampled"),
    };
    let report = |k: usize, verdict: &Result<(), Fetch>| {
        if let Err(e) = verdict {
            let why = match e {
                Fetch::Failed(why) => why.as_str(),
                Fetch::Superseded => "superseded on every resubmission",
            };
            eprintln!("sybench: request {k} ({:?}) failed: {why}", read(k));
        }
    };
    let sample = |k: usize, latency: Option<Duration>, correct: bool| Sample {
        phase: schedule[k].phase,
        job: read(k),
        latency_ms: latency.map(|l| l.as_secs_f64() * 1e3),
        correct,
    };
    let sent_side = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            // Owned here, so the channel closes when the sender is done.
            let tx = tx;
            let mut side = SenderSide::default();
            for (k, r) in schedule.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(r.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                side.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
                match r.op {
                    Op::Read(job) => match submit(mode, env, inputs, &job, tracer, k) {
                        Submitted::Answered(verdict) => {
                            let now = Instant::now();
                            tracer.record("request", "due→values", k as u64, due, now);
                            report(k, &verdict);
                            side.samples
                                .push(sample(k, Some(now - due), verdict.is_ok()));
                        }
                        Submitted::Queued(id) => {
                            let posted = Instant::now();
                            tx.send(Queued { k, due, posted, id })
                                .expect("the collector outlives the sender");
                        }
                        Submitted::Refused => side.samples.push(sample(k, None, false)),
                    },
                    Op::Write(j) => {
                        let want = env.ca_version + j as u64 + 1;
                        let (ok, secs) = match mode {
                            Mode::Http => {
                                let (res, secs) =
                                    tracer.time("registry", "POST /graphs", k as u64, || {
                                        http::request(
                                            env.addr(),
                                            "POST",
                                            "/graphs",
                                            inputs.write_bodies[j].as_bytes(),
                                        )
                                    });
                                let version =
                                    res.ok().filter(|r| r.0 == 200).and_then(|(_, body)| {
                                        let doc = serde_json::from_str::<Value>(
                                            &String::from_utf8_lossy(&body),
                                        )
                                        .ok()?;
                                        u64_field(&doc, "version")
                                    });
                                (version == Some(want), secs)
                            }
                            Mode::InProcess => {
                                let host = reweighted(ca, &inputs.write_weights[j]);
                                let (res, secs) =
                                    tracer.time("registry", "register", k as u64, || {
                                        env.service.register_graph(
                                            "ca",
                                            host,
                                            RegisterOptions::default(),
                                        )
                                    });
                                (res.is_ok_and(|g| g.version == want), secs)
                            }
                        };
                        side.write_ms.push(secs * 1e3);
                        side.writes_failed += !ok as u64;
                    }
                }
            }
            side
        });
        for mut q in rx {
            let mut tries = 0;
            let (verdict, done) = loop {
                let start = Instant::now();
                let (verdict, done) = fetch(mode, env, inputs, &read(q.k), q.id, tracer, q.k);
                // A job already done when asked was seen late by at most
                // the time since its submission returned.
                let waited = done - start;
                let late = if waited < Duration::from_millis(1) {
                    start.saturating_duration_since(q.posted)
                } else {
                    Duration::ZERO
                };
                resolution_ms.push(late.as_secs_f64() * 1e3);
                match verdict {
                    Err(Fetch::Superseded) if tries < MAX_RESUBMITS => {
                        tries += 1;
                        superseded += 1;
                        match submit(mode, env, inputs, &read(q.k), tracer, q.k) {
                            Submitted::Answered(v) => break (v, Instant::now()),
                            Submitted::Queued(id) => {
                                q.id = id;
                                q.posted = Instant::now();
                            }
                            Submitted::Refused => {
                                break (
                                    Err(Fetch::Failed("resubmission refused".into())),
                                    Instant::now(),
                                )
                            }
                        }
                    }
                    v => break (v, done),
                }
            };
            tracer.record("request", "due→values", q.k as u64, q.due, done);
            report(q.k, &verdict);
            samples.push(sample(q.k, Some(done - q.due), verdict.is_ok()));
        }
        sender.join().expect("the sender does not panic")
    });
    samples.extend(sent_side.samples);
    for s in &samples {
        ops.record(s.correct);
    }
    ops.attempted += sent_side.write_ms.len() as u64;
    ops.failed += sent_side.writes_failed;
    Drive {
        samples,
        superseded,
        write_ms: sent_side.write_ms,
        writes_failed: sent_side.writes_failed,
        lateness_ms: sent_side.lateness_ms,
        resolution_ms,
        span_s: t0.elapsed().as_secs_f64(),
        before,
        after: env.service.stats(),
    }
}

impl Drive {
    fn latencies(&self, phase: Option<Phase>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| phase.is_none_or(|p| s.phase == p))
            .filter_map(|s| s.latency_ms)
            .collect()
    }

    fn end_to_end(&self, m: &mut Metrics, high_s: f64) {
        let correct = self.samples.iter().filter(|s| s.correct).count();
        m.set("jobs_per_s", correct as f64 / self.span_s, "jobs/s");
        m.set(
            "device_ms",
            self.after.device_ms - self.before.device_ms,
            "ms",
        );
        for phase in [Phase::Low, Phase::High] {
            let l = self.latencies(Some(phase));
            m.set(format!("req_ms.p50.{}", phase.label()), median(&l), "ms");
            m.set(
                format!("req_ms.p90.{}", phase.label()),
                quantile(&l, 0.9),
                "ms",
            );
        }
        let good = self
            .samples
            .iter()
            .filter(|s| {
                s.phase == Phase::High && s.correct && s.latency_ms.is_some_and(|l| l <= LIMIT_MS)
            })
            .count();
        m.set("goodput_rps.high", good as f64 / high_s, "req/s");
    }

    fn summary(&self) -> String {
        let n = |p| self.latencies(Some(p)).len();
        let (a, b) = (&self.before, &self.after);
        let hits = b.cache_hits - a.cache_hits;
        let lookups = hits + b.cache_misses - a.cache_misses;
        format!(
            "serve-mixed: {} low + {} high latency samples (p90 leaves {} and {} beyond); {} writes ({} failed); {} reads resubmitted after a write superseded them; cache hits {hits}/{lookups}; {} jobs coalesced; generator lateness p90 {:.3} ms, max {:.3} ms; completion-timing resolution p90 {:.3} ms",
            n(Phase::Low),
            n(Phase::High),
            n(Phase::Low) / 10,
            n(Phase::High) / 10,
            self.write_ms.len(),
            self.writes_failed,
            self.superseded,
            b.coalesced_jobs - a.coalesced_jobs,
            quantile(&self.lateness_ms, 0.9),
            quantile(&self.lateness_ms, 1.0),
            quantile(&self.resolution_ms, 0.9),
        )
    }
}

/// The first job of each class in the schedule (class = algorithm and
/// dataset).
fn class_representatives(schedule: &[Request]) -> Vec<Job> {
    let mut reps: Vec<Job> = Vec::new();
    for r in schedule {
        if let Op::Read(job) = r.op {
            if !reps
                .iter()
                .any(|j| j.algo == job.algo && j.dataset == job.dataset)
            {
                reps.push(job);
            }
        }
    }
    reps
}

/// Runs serve-mixed. Returns the operations, the metrics (end to end
/// untraced, per layer traced) and the tracer.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Ops, Metrics, Tracer) {
    let tracer = Tracer::new(traced);
    let quiet = Tracer::new(false);
    let high_s = seconds / 2.0;
    let (kron, ca, pools) = graphs_and_pools(seed);
    let (mut gen_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut last: Option<Env> = None;
    for rep in 0..SETUP_REPS {
        if let Some(env) = last.take() {
            env.stop();
        }
        let (env, g, s) = setup(&quiet, rep as u64, &pools);
        gen_s.push(g);
        setup_s.push(s);
        last = Some(env);
    }
    let env = last.expect("at least one set-up");
    let inputs = inputs(&kron, &ca, &pools, seed, seconds);

    let mut ops = Ops::default();
    let plain = drive(&env, &ca, &inputs, Mode::Http, &quiet, &mut ops);
    env.stop();
    println!("{}", plain.summary());
    let mut e2e = Metrics::default();
    plain.end_to_end(&mut e2e, high_s);
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    if !traced {
        return (ops, e2e, tracer);
    }

    // Traced run: the same schedule on a fresh service with spans on.
    let mut metrics = Metrics::default();
    let (env, ..) = setup(&tracer, SETUP_REPS as u64, &pools);
    let d = drive(&env, &ca, &inputs, Mode::Http, &tracer, &mut ops);
    println!("traced {}", d.summary());
    let mut traced_e2e = Metrics::default();
    d.end_to_end(&mut traced_e2e, high_s);
    traced_e2e.set("setup_s", median(&setup_s), "s");
    traced_e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    for (name, unit) in LATENCY {
        metrics.set(name, e2e.get(name).unwrap_or(f64::NAN), unit);
    }
    for (name, value, unit) in traced_e2e.iter() {
        metrics.set(
            format!("trace.overhead.{name}"),
            value - e2e.get(name).unwrap_or(f64::NAN),
            unit,
        );
    }
    let mut health = Vec::new();
    for i in 0..200 {
        let t = Instant::now();
        let res = http::request(env.addr(), "GET", "/health", b"");
        let dt = t.elapsed().as_secs_f64() * 1e6;
        ops.record(matches!(res, Ok((200, _))));
        if i >= 20 {
            health.push(dt);
        }
    }
    metrics.set("http.health_rtt_us", median(&health), "us");
    let retained = env.service.job_ids().len();
    env.stop();

    let (a, b) = (&d.before, &d.after);
    let done = (b.jobs_done - a.jobs_done) as f64;
    let coalesced = (b.coalesced_jobs - a.coalesced_jobs) as f64;
    let hits = (b.cache_hits - a.cache_hits) as f64;
    let lookups = hits + (b.cache_misses - a.cache_misses) as f64;
    metrics.set("scheduler.coalesced_share", coalesced / done, "ratio");
    metrics.set(
        "scheduler.batch_lanes_mean",
        coalesced / (b.coalesced_batches - a.coalesced_batches).max(1) as f64,
        "lanes",
    );
    metrics.set("scheduler.device_ms", b.device_ms - a.device_ms, "ms");
    let refused = (b.jobs_shed + b.jobs_timeout + b.jobs_rejected + b.jobs_failed)
        - (a.jobs_shed + a.jobs_timeout + a.jobs_rejected + a.jobs_failed);
    metrics.set("scheduler.refused", refused as f64, "count");
    metrics.set("scheduler.jobs_retained", retained as f64, "count");
    metrics.set("cache.hit_ratio", hits / lookups.max(1.0), "ratio");
    metrics.set(
        "cache.evictions",
        (b.cache_evictions - a.cache_evictions) as f64,
        "count",
    );
    metrics.set("registry.write_ms", median(&d.write_ms), "ms");
    metrics.set("registry.superseded_reads", d.superseded as f64, "count");
    let n = |p| d.latencies(Some(p)).len() as f64;
    metrics.set("loadgen.samples.low", n(Phase::Low), "count");
    metrics.set("loadgen.samples.high", n(Phase::High), "count");
    metrics.set(
        "loadgen.lateness_ms.p90",
        quantile(&d.lateness_ms, 0.9),
        "ms",
    );
    metrics.set(
        "loadgen.resolution_ms.p90",
        quantile(&d.resolution_ms, 0.9),
        "ms",
    );

    // In-process replay on a fresh service: each class alone first (solo
    // wall time), then the same schedule through submit/wait.
    let (env, ..) = setup(&tracer, SETUP_REPS as u64 + 1, &pools);
    let reps = class_representatives(&inputs.schedule);
    let mut solo: HashMap<(Algo, &str), f64> = HashMap::new();
    for job in &reps {
        let mut req = JobRequest::rooted(job.dataset, job.algo.label(), job.source.unwrap_or(0));
        req.source = job.source;
        req.no_cache = Some(true);
        req.no_coalesce = Some(true);
        let t = Instant::now();
        let id = env.service.submit(req).expect("solo submit");
        let rec = env.service.wait(id);
        solo.insert((job.algo, job.dataset), t.elapsed().as_secs_f64() * 1e3);
        ops.record(rec.is_some_and(|r| inputs.check_record(job, &r, &env).is_ok()));
    }
    let inproc = drive(&env, &ca, &inputs, Mode::InProcess, &quiet, &mut ops);
    env.stop();
    metrics.set(
        "http.overhead_ms",
        median(&d.latencies(None)) - median(&inproc.latencies(None)),
        "ms",
    );
    let waits: Vec<f64> = d
        .samples
        .iter()
        .filter_map(|s| Some(s.latency_ms? - solo[&(s.job.algo, s.job.dataset)]))
        .collect();
    metrics.set("scheduler.queue_wait_ms.p90", quantile(&waits, 0.9), "ms");

    // Library-level probes on the same graphs: uploads and the
    // accounting replay of one job per class.
    let data = vec![HostData::new("kron", kron), HostData::new("ca", ca)];
    metrics.set("gen.build_s", median(&gen_s), "s");
    let refs: HashMap<Job, Values> = reps
        .iter()
        .map(|j| (*j, inputs.refs[&(*j, 0)].clone()))
        .collect();
    let (upload_s, device_bytes) =
        solve::library_probes(&data, &reps, &refs, &tracer, &mut ops, &mut metrics);
    metrics.set("graph.upload_ms", upload_s * 1e3, "ms");
    metrics.set(
        "graph.device_mb",
        device_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    (ops, metrics, tracer)
}

/// Saturation throughput of the serve-mixed mix, in-process: the high
/// phase's requests (writes included) submitted in schedule order with
/// at most `outstanding` in flight, for `seconds`. Returns completed
/// reads per second with coalescing opted out and with it allowed.
pub fn calibrate(seed: u64, seconds: f64, outstanding: usize) -> [f64; 2] {
    let quiet = Tracer::new(false);
    let mut out = [0.0; 2];
    for (slot, no_coalesce) in [true, false].into_iter().enumerate() {
        let (_, ca, pools) = graphs_and_pools(seed);
        let (env, ..) = setup(&quiet, 0, &pools);
        // A long schedule; only its order and mix matter here.
        let schedule = workload::serve_schedule(&pools, seed, 600.0, HIGH_RPS, HIGH_RPS);
        let start = Instant::now();
        let mut in_flight = std::collections::VecDeque::new();
        let mut done = 0usize;
        let mut writes = 0u64;
        for r in &schedule {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            match r.op {
                Op::Read(job) => {
                    let mut req = JobRequest::unrooted(job.dataset, job.algo.label());
                    req.source = job.source;
                    req.no_coalesce = Some(no_coalesce);
                    in_flight.push_back(env.service.submit(req).expect("calibration submit"));
                }
                Op::Write(j) => {
                    let host = CsrHost {
                        weights: Some(workload::perturbed_weights(&ca, seed, j)),
                        ..ca.clone()
                    };
                    env.service
                        .register_graph("ca", host, RegisterOptions::default())
                        .expect("calibration write");
                    writes += 1;
                }
            }
            while in_flight.len() >= outstanding {
                env.service.wait(in_flight.pop_front().expect("non-empty"));
                done += 1;
            }
        }
        for id in in_flight.drain(..) {
            env.service.wait(id);
            done += 1;
        }
        out[slot] = done as f64 / start.elapsed().as_secs_f64();
        println!(
            "{}: {done} reads and {writes} writes in {:.2} s",
            if no_coalesce {
                "uncoalesced"
            } else {
                "coalesced"
            },
            start.elapsed().as_secs_f64()
        );
        env.stop();
    }
    out
}
