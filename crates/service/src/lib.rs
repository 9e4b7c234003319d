//! # sygraph-service — long-running graph analytics service
//!
//! The SYgraph paper frames the framework as a building block for
//! interactive analytics; this crate supplies the serving layer above
//! the simulator (DESIGN.md §15):
//!
//! - **Resident graphs** ([`Registry`]): named, version-tagged graphs
//!   load once, get device-uploaded per worker, and stay warm (pull
//!   mirror included) across jobs.
//! - **Concurrent scheduler** ([`Scheduler`]): worker threads, each
//!   owning one simulated device queue, drain a shared job queue with
//!   admission control backed by the allocation ledger's memory model.
//! - **Result cache** ([`ResultCache`]): keyed on (graph, version,
//!   algo, params); hits are bit-identical to recomputes.
//! - **Request coalescing**: single-source BFS requests inside the
//!   batching window fold into one W-lane multi-source pass and demux
//!   back, per-lane bit-identical to serial runs.
//! - **HTTP front end** ([`HttpServer`]): `/health`, `/ready`,
//!   `/graphs`, `/jobs` over a hand-rolled `std::net` server.
//! - **Resilience** (DESIGN.md §16): per-job deadlines enforced at
//!   superstep-checkpoint boundaries, bounded-queue backpressure with
//!   `Retry-After` hints, fault-wired workers with a per-worker circuit
//!   breaker, and a [`Service::drain`] graceful-shutdown path.
//!
//! ```
//! use sygraph_service::{JobRequest, RegisterOptions, Service, ServiceConfig};
//! use sygraph_core::graph::CsrHost;
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let host = CsrHost::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! service.register_graph("line", host, RegisterOptions::default()).unwrap();
//! let id = service.submit(JobRequest::rooted("line", "bfs", 0)).unwrap();
//! let done = service.wait(id).unwrap();
//! assert_eq!(done.values.unwrap().len(), 4);
//! ```

pub mod cache;
pub mod error;
pub mod http;
pub mod job;
pub mod registry;
pub mod scheduler;

use std::sync::Arc;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use error::{ServiceError, ServiceResult};
pub use http::HttpServer;
pub use job::{Algo, JobMetrics, JobRecord, JobRequest, JobState, JobValues};
pub use registry::{RegisterOptions, RegisteredGraph, Registry};
pub use scheduler::{modeled_peak_bytes, DrainReport, Scheduler, ServiceConfig, StatsSnapshot};

use sygraph_core::graph::CsrHost;

/// The assembled service: registry + cache + scheduler behind one
/// facade. Cloneable via `Arc`; the HTTP layer holds one.
pub struct Service {
    registry: Arc<Registry>,
    cache: Arc<ResultCache>,
    scheduler: Scheduler,
}

impl Service {
    /// Builds the registry/cache and spins up the worker pool.
    pub fn start(config: ServiceConfig) -> ServiceResult<Service> {
        let registry = Arc::new(Registry::new());
        let cache = Arc::new(ResultCache::new(config.cache_entries));
        let scheduler = Scheduler::new(config, registry.clone(), cache.clone())?;
        Ok(Service {
            registry,
            cache,
            scheduler,
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        self.scheduler.config()
    }

    /// Registers (or re-registers) a graph; see [`Registry::register`].
    pub fn register_graph(
        &self,
        name: &str,
        host: CsrHost,
        options: RegisterOptions,
    ) -> ServiceResult<Arc<RegisteredGraph>> {
        self.registry.register(name, host, options)
    }

    /// All registered graphs, name-sorted.
    pub fn graphs(&self) -> Vec<Arc<RegisteredGraph>> {
        self.registry.list()
    }

    /// Submits a job; see [`Scheduler::submit`].
    pub fn submit(&self, request: JobRequest) -> ServiceResult<u64> {
        self.scheduler.submit(request)
    }

    /// Snapshot of a job record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.scheduler.job(id)
    }

    /// All job ids, ascending.
    pub fn job_ids(&self) -> Vec<u64> {
        self.scheduler.job_ids()
    }

    /// Blocks until `id` is terminal.
    pub fn wait(&self, id: u64) -> Option<JobRecord> {
        self.scheduler.wait(id)
    }

    /// Blocks until no work is queued or running.
    pub fn wait_idle(&self) {
        self.scheduler.wait_idle()
    }

    /// Pauses job claiming (submissions still queue).
    pub fn pause(&self) {
        self.scheduler.pause()
    }

    /// Resumes job claiming.
    pub fn resume(&self) {
        self.scheduler.resume()
    }

    /// Accepting jobs and below the queue high-water mark?
    pub fn ready(&self) -> bool {
        self.scheduler.ready()
    }

    /// Gracefully drains the service: stops admissions, finishes queued
    /// and in-flight work up to `deadline`, cancels the rest, joins the
    /// workers, and reports every terminal job record. See
    /// [`Scheduler::drain`].
    pub fn drain(&self, deadline: std::time::Duration) -> DrainReport {
        self.scheduler.drain(deadline)
    }

    /// Hard stop: see [`Scheduler::shutdown`]. Queued jobs stay
    /// `Queued`; prefer [`Service::drain`] in servers.
    pub fn shutdown(&self) {
        self.scheduler.shutdown()
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.scheduler.stats()
    }

    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Resolves a CLI-style graph spec: `gen:<key>` for the generated
/// datasets (`SYG_SCALE=test` shrinks them, same convention as the
/// bench binaries), anything else as a file path routed by extension.
/// The error is the bare message; the HTTP layer answers it with a 400.
pub fn load_graph_spec(spec: &str) -> Result<CsrHost, String> {
    if let Some(key) = spec.strip_prefix("gen:") {
        return sygraph_gen::datasets::by_key(key, sygraph_gen::Scale::from_env())
            .map(|ds| ds.host)
            .ok_or_else(|| format!("unknown generated dataset {key:?}"));
    }
    let file = std::fs::File::open(spec).map_err(|e| format!("{spec}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let result = if spec.ends_with(".mtx") {
        sygraph_io::mtx::read(reader)
    } else if spec.ends_with(".gr") {
        sygraph_io::dimacs::read(reader)
    } else if spec.ends_with(".sygb") {
        sygraph_io::binary::read(reader)
    } else {
        sygraph_io::edgelist::read(reader, 0)
    };
    result.map_err(|e| format!("{spec}: {e}"))
}
