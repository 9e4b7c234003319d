//! Job model: requests, lifecycle states, results, and per-job metrics.
//!
//! A job is one algorithm execution against a resident graph. Requests
//! arrive as JSON (HTTP) or structs (in-process), are validated at the
//! admission boundary, and flow through the scheduler as
//! `Queued → Running → Done/Failed`, or stop at `Rejected` when
//! admission control refuses them.

use serde::{Deserialize, Serialize};

use crate::error::{ServiceError, ServiceResult};

pub use sygraph_algos::registry::{Algo, Values as JobValues};

/// The algorithms the service runs. Single-source BFS is the coalescible
/// class: the scheduler may fold several requests into one W-lane
/// multi-source pass (bit-identical per lane to rooted runs).
pub const SERVED: [Algo; 6] = [
    Algo::Bfs,
    Algo::Sssp,
    Algo::Delta,
    Algo::Cc,
    Algo::Bc,
    Algo::Pagerank,
];

/// Parses the wire name of a served algorithm; anything else is a typed
/// 400, not a panic deep in dispatch.
pub fn parse_algo(name: &str) -> ServiceResult<Algo> {
    Algo::parse(name)
        .filter(|a| SERVED.contains(a))
        .ok_or_else(|| {
            let expected: Vec<&str> = SERVED.iter().map(|a| a.label()).collect();
            ServiceError::BadRequest(format!(
                "unknown algorithm {name:?} (expected {})",
                expected.join("|")
            ))
        })
}

/// A job submission. `algo` stays a string here so parse failures reach
/// the caller as a 400, not a deserialization panic; `Service::submit`
/// converts it via [`parse_algo`]. Optional knobs default to service
/// policy when absent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobRequest {
    /// Name of a registered resident graph.
    pub graph: String,
    /// Algorithm wire name (`bfs|sssp|delta|cc|bc|pagerank`).
    pub algo: String,
    /// Source vertex for rooted algorithms.
    pub source: Option<u32>,
    /// Δ for delta-stepping SSSP (default 2.0).
    pub delta: Option<f32>,
    /// Opt this job out of the result cache (forces recompute and
    /// skips the store).
    pub no_cache: Option<bool>,
    /// Opt this job out of request coalescing (forces a serial rooted
    /// pass even when batchmates are available).
    pub no_coalesce: Option<bool>,
    /// Client deadline in milliseconds, measured from admission. Capped
    /// by the server's `max_timeout_ms`; absent means the server's
    /// `default_timeout_ms` (which may be no deadline at all). Jobs past
    /// their deadline are shed from the queue or aborted mid-run with a
    /// typed `deadline-exceeded` record (HTTP 408).
    pub timeout_ms: Option<u64>,
}

impl JobRequest {
    /// Minimal rooted request with service-default policy knobs.
    pub fn rooted(graph: &str, algo: &str, source: u32) -> JobRequest {
        JobRequest {
            source: Some(source),
            ..JobRequest::unrooted(graph, algo)
        }
    }

    /// Minimal unrooted request (cc / pagerank).
    pub fn unrooted(graph: &str, algo: &str) -> JobRequest {
        JobRequest {
            graph: graph.to_string(),
            algo: algo.to_string(),
            ..JobRequest::default()
        }
    }
}

/// Job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Rejected,
}

/// Per-job execution metrics, filled in by the worker that ran it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Supersteps the algorithm ran.
    pub iterations: u32,
    /// Modelled device milliseconds.
    pub sim_ms: f64,
    /// Kernel launches attributed to this job (profiler-epoch scoped,
    /// so a worker's reused queue never bleeds counts across jobs).
    pub kernel_launches: u64,
    /// Measured device-memory peak while the job ran, from the
    /// allocation ledger.
    pub mem_peak_bytes: u64,
    /// Admission control's modelled peak for this job.
    pub modeled_peak_bytes: u64,
    /// Served from the result cache (no device work).
    pub cache_hit: bool,
    /// Ran as a lane of a coalesced multi-source batch.
    pub coalesced: bool,
    /// Lanes in the batch this job rode in (1 when serial).
    pub batch_size: u32,
    /// Fault-recovery events during the job (profiler-epoch scoped).
    pub recovery_events: u64,
}

/// Full job record, as returned by `GET /jobs/<id>`.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub request: JobRequest,
    pub state: JobState,
    /// Graph registry version the job ran against (cache-key input).
    pub graph_version: u64,
    pub values: Option<JobValues>,
    pub error: Option<String>,
    pub error_kind: Option<String>,
    pub http_status: Option<u16>,
    pub metrics: JobMetrics,
}

impl JobRecord {
    pub(crate) fn queued(id: u64, request: JobRequest, graph_version: u64) -> JobRecord {
        JobRecord {
            id,
            request,
            state: JobState::Queued,
            graph_version,
            values: None,
            error: None,
            error_kind: None,
            http_status: None,
            metrics: JobMetrics::default(),
        }
    }

    /// JSON document for the HTTP layer. `include_values` lets the
    /// status poll omit the (possibly huge) value vector.
    pub fn to_json(&self, include_values: bool) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("id".into(), serde_json::to_value(&self.id)),
            ("graph".into(), serde_json::to_value(&self.request.graph)),
            (
                "graph_version".into(),
                serde_json::to_value(&self.graph_version),
            ),
            ("algo".into(), serde_json::to_value(&self.request.algo)),
            ("state".into(), serde_json::to_value(&self.state)),
        ];
        if let Some(src) = self.request.source {
            fields.push(("source".into(), serde_json::to_value(&src)));
        }
        if let Some(err) = &self.error {
            fields.push(("error".into(), serde_json::to_value(err)));
        }
        if let Some(kind) = &self.error_kind {
            fields.push(("error_kind".into(), serde_json::to_value(kind)));
        }
        if self.state == JobState::Done {
            fields.push((
                "iterations".into(),
                serde_json::to_value(&self.metrics.iterations),
            ));
            fields.push(("sim_ms".into(), serde_json::to_value(&self.metrics.sim_ms)));
            fields.push(("metrics".into(), serde_json::to_value(&self.metrics)));
            if include_values {
                if let Some(values) = &self.values {
                    fields.push(("values".into(), serde_json::to_value(values)));
                }
            }
        }
        serde::Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_parse_round_trips_and_rejects() {
        for a in SERVED {
            assert_eq!(parse_algo(a.label()).unwrap(), a);
        }
        assert_eq!(parse_algo("pr").unwrap(), Algo::Pagerank);
        for name in ["tarjan", "dobfs"] {
            assert_eq!(parse_algo(name).unwrap_err().http_status(), 400);
        }
    }

    #[test]
    fn job_request_json_round_trip() {
        let req = JobRequest::rooted("road", "bfs", 7);
        let text = serde_json::to_string(&req).unwrap();
        let back: JobRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.graph, "road");
        assert_eq!(back.algo, "bfs");
        assert_eq!(back.source, Some(7));
        assert_eq!(back.no_cache, None);
    }
}
