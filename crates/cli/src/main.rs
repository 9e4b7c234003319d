//! `sygraph-cli` — run SYgraph algorithms from the command line.
//!
//! ```text
//! sygraph-cli <algo> <graph> [options]
//!
//! algo    a name from the algorithm registry, sygraph_algos::registry::Algo
//!         (the usage line lists them; pr and delta-sssp are aliases)
//! graph   a file (.mtx, .el, .gr, .sygb) or a generated dataset:
//!         gen:ca gen:usa gen:hollyw gen:indo gen:journal gen:kron gen:twitter
//!         (generated at bench scale; set SYG_SCALE=test for the
//!         small CI-sized variants)
//!
//! options
//!   --src <v>         source vertex (default 0; ignored by unrooted algorithms)
//!   --sources <a,b,…> batch of source vertices: algorithms with a batched
//!                     mode run all of them in one W-lane pass (the
//!                     engine packs W bit-lanes beside the frontier bitmap
//!                     and expands every source through shared supersteps)
//!   --batch-width <w> lanes per multi-source batch: 8|16|32|64 (default 32)
//!   --device <name>   v100s | max1100 | mi100 | host (default v100s)
//!   --undirected      symmetrize the graph before running
//!   --no-msi --no-cf --no-2lb    disable individual optimizations
//!   --balancing <s>   advance load balancing: wg | bucketed | auto (default auto)
//!   --frontier <r>    frontier representation: dense | sparse | auto (default auto)
//!   --direction <d>   traversal direction: push | pull | auto (default auto).
//!                     pull and auto build the graph's pull (CSC) view and
//!                     let the engine run Beamer-style bottom-up supersteps;
//!                     without the flag only the algorithms that need the
//!                     CSC view (dobfs, batched bc) pay for it
//!   --devices <n>     shard the graph across n simulated devices and run
//!                     the partitioned BSP path, where the algorithm has
//!                     one. Each device gets its own queue; frontiers
//!                     exchange halo activations at every superstep boundary
//!   --partition <p>   edge-cut partitioner: hash | range (default hash)
//!   --delta <x>       bucket width for the delta algorithm (default 2)
//!   --k <k>           core order for kcore, an integer (default 2)
//!   --json            machine-readable output
//!   --profile         print the per-kernel profile afterwards (with
//!                     --frontier auto, includes the per-superstep
//!                     representation trace and switch counts; with
//!                     --sources, the per-superstep active-lane trace and
//!                     lane-retirement total)
//!   --sanitize        run under the device-memory sanitizer: every kernel
//!                     access is shadow-tracked for out-of-bounds,
//!                     use-after-free and non-atomic data races, and racy
//!                     launches are re-executed under a shuffled workgroup
//!                     order to surface order dependence. Prints the
//!                     findings report; exits non-zero if any were found.
//!   --inject-faults <spec>   attach a deterministic fault plan to the
//!                     device queue, e.g. "transient@4,oom@9,lost@15" or
//!                     "oom-prob=0.01,seed=7" (see sygraph_sim::FaultPlan)
//!   --retry <n>       allow n retries per superstep and enable the OOM
//!                     degradation ladder (default 0 = fail fast)
//!   --checkpoint-every <k>   checkpoint algorithm state every k
//!                     supersteps so device-lost faults can resume
//! ```
//!
//! `sygraph-cli serve [options]` starts the long-running analytics service
//! instead (see `sygraph-service` and DESIGN.md §15); `serve_usage` lists
//! its options.
//!
//! The server installs SIGTERM/SIGINT handlers: on either signal it
//! stops admissions, drains queued and in-flight jobs up to the drain
//! deadline (DESIGN.md §16), prints the drain summary, and exits 0.

use std::collections::HashMap;
use std::process::ExitCode;

use serde_json::json;
use sygraph_algos::partitioned::PartitionedRun;
use sygraph_algos::registry::{Algo, Mode, Params, Values};
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::graph::{validate_sources, Graph, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::{Balancing, Direction, OptConfig, Representation};
use sygraph_service::load_graph_spec;
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue};

fn usage() -> ExitCode {
    let algos: Vec<&str> = Algo::ALL.iter().map(|a| a.label()).collect();
    eprintln!(
        "usage: sygraph-cli <{}> <graph.{{mtx,el,gr,sygb}}|gen:NAME> \
         [--src V] [--sources A,B,...] [--batch-width 8|16|32|64] \
         [--device v100s|max1100|mi100|host] [--undirected] \
         [--no-msi] [--no-cf] [--no-2lb] [--balancing wg|bucketed|auto] \
         [--frontier dense|sparse|auto] [--direction push|pull|auto] \
         [--devices N] [--partition hash|range] \
         [--delta X] [--k K] [--json] [--profile] [--sanitize] \
         [--inject-faults SPEC] [--retry N] [--checkpoint-every K]",
        algos.join("|")
    );
    ExitCode::from(2)
}

fn serve_usage() -> ExitCode {
    eprintln!(
        "usage: sygraph-cli serve [--addr HOST:PORT] [--device v100s|max1100|mi100|host] \
         [--workers N] [--batch-window-ms MS] [--batch-width 8|16|32|64] \
         [--job-mem-budget BYTES[K|M|G]] [--cache-entries N] \
         [--graphs name=spec[+undirected][+pull],...] [--paused] \
         [--max-queue N] [--default-timeout-ms MS] [--max-timeout-ms MS] \
         [--inject-faults SPEC] [--retry N] [--checkpoint-every K] \
         [--drain-deadline-ms MS] [--breaker-threshold N] [--breaker-open-ms MS] \
         [--http-read-timeout-ms MS]"
    );
    ExitCode::from(2)
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it.
static TERMINATE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    TERMINATE.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs `on_terminate` for SIGTERM (15) and SIGINT (2) via the libc
/// `signal` symbol std already links — no signal crate in this offline
/// workspace. Only flag-setting happens in the handler; the drain runs
/// on the main thread.
fn install_terminate_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_terminate as *const () as usize); // SIGTERM
        signal(2, on_terminate as *const () as usize); // SIGINT
    }
}

/// Parses `--job-mem-budget` style sizes: plain bytes or a K/M/G suffix.
fn parse_bytes(text: &str) -> Option<u64> {
    let (digits, mult) = match text.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&text[..text.len() - 1], 1u64 << 10),
        Some(b'M') | Some(b'm') => (&text[..text.len() - 1], 1u64 << 20),
        Some(b'G') | Some(b'g') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    let bytes = digits.parse::<u64>().ok().map(|v| v * mult);
    if bytes.is_none() {
        eprintln!("bad size {text:?}");
    }
    bytes
}

/// Parses an `--inject-faults` spec, reporting a malformed one.
fn parse_faults(spec: &str) -> Option<FaultPlan> {
    FaultPlan::parse(spec)
        .map_err(|e| eprintln!("bad --inject-faults spec: {e}"))
        .ok()
}

/// The value after a flag, parsed with `$parse` (default `str::parse`);
/// returns `$usage()` from the caller when it is missing or malformed.
macro_rules! next_or {
    ($it:ident, $usage:ident) => {
        next_or!($it, $usage, |v: &str| v.parse().ok())
    };
    ($it:ident, $usage:ident, $parse:expr) => {
        match $it.next().map(String::as_str).and_then($parse) {
            Some(v) => v,
            None => return $usage(),
        }
    };
}

/// `sygraph-cli serve`: start the analytics service and block.
fn serve_main(args: &[String]) -> ExitCode {
    use sygraph_service::{HttpServer, RegisterOptions, Service, ServiceConfig};

    let mut addr = "127.0.0.1:7878".to_string();
    let mut device = "v100s".to_string();
    let mut cfg = ServiceConfig::default();
    let mut graph_specs: Vec<String> = Vec::new();
    let mut http_read_timeout_ms: u64 = 30_000;
    let mut retry: Option<u32> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = next_or!(it, serve_usage),
            "--device" => device = next_or!(it, serve_usage),
            "--workers" => cfg.workers = next_or!(it, serve_usage),
            "--batch-window-ms" => cfg.batch_window_ms = next_or!(it, serve_usage),
            "--batch-width" => cfg.batch_width = next_or!(it, serve_usage),
            "--job-mem-budget" => {
                cfg.job_mem_budget = Some(next_or!(it, serve_usage, parse_bytes));
            }
            "--cache-entries" => cfg.cache_entries = next_or!(it, serve_usage),
            "--graphs" => {
                let list: String = next_or!(it, serve_usage);
                graph_specs.extend(list.split(',').map(str::to_string));
            }
            "--paused" => cfg.start_paused = true,
            "--max-queue" => cfg.max_queue = next_or!(it, serve_usage),
            "--default-timeout-ms" => cfg.default_timeout_ms = Some(next_or!(it, serve_usage)),
            "--max-timeout-ms" => cfg.max_timeout_ms = next_or!(it, serve_usage),
            "--inject-faults" => cfg.fault_plan = Some(next_or!(it, serve_usage, parse_faults)),
            "--retry" => retry = Some(next_or!(it, serve_usage)),
            "--checkpoint-every" => checkpoint_every = Some(next_or!(it, serve_usage)),
            "--drain-deadline-ms" => cfg.drain_deadline_ms = next_or!(it, serve_usage),
            "--breaker-threshold" => cfg.breaker_threshold = next_or!(it, serve_usage),
            "--breaker-open-ms" => cfg.breaker_open_ms = next_or!(it, serve_usage),
            "--http-read-timeout-ms" => http_read_timeout_ms = next_or!(it, serve_usage),
            other => {
                eprintln!("unknown option {other}");
                return serve_usage();
            }
        }
    }
    let Some(profile) = DeviceProfile::by_name(&device) else {
        eprintln!("unknown device {device}");
        return serve_usage();
    };
    cfg.profile = profile;
    // Recovery policy: explicit --retry/--checkpoint-every win; a fault
    // plan with neither defaults to the resilient policy, since running
    // chaos against fail-fast workers tests nothing but the breaker.
    cfg.recovery = match (retry, checkpoint_every) {
        (None, None) if cfg.fault_plan.is_some() => RecoveryPolicy::resilient(3, 4),
        (None, None) => RecoveryPolicy::default(),
        (r, c) => {
            let mut p = RecoveryPolicy::resilient(r.unwrap_or(3), c.unwrap_or(4));
            p.degrade_on_oom = r.unwrap_or(3) > 0;
            p
        }
    };

    let service = match Service::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start service: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Preload graphs: `name=spec[+undirected][+pull]`.
    for entry in &graph_specs {
        let Some((name, rest)) = entry.split_once('=') else {
            eprintln!("bad --graphs entry {entry:?} (expected name=spec)");
            return serve_usage();
        };
        let mut options = RegisterOptions::default();
        let mut parts = rest.split('+');
        let spec = parts.next().unwrap_or_default();
        for flag in parts {
            match flag {
                "undirected" => options.undirected = true,
                "pull" => options.pull = true,
                other => {
                    eprintln!("bad --graphs flag {other:?} in {entry:?}");
                    return serve_usage();
                }
            }
        }
        let host = match load_graph_spec(spec) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error loading graph {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match service.register_graph(name, host, options) {
            Ok(g) => eprintln!(
                "registered {name}: {} vertices, {} edges (version {})",
                g.vertex_count(),
                g.edge_count(),
                g.version
            ),
            Err(e) => {
                eprintln!("error registering graph {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let service = std::sync::Arc::new(service);
    let mut server = match HttpServer::serve_with_read_timeout(
        service.clone(),
        &addr,
        std::time::Duration::from_millis(http_read_timeout_ms),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_terminate_handlers();
    println!("listening on http://{}", server.addr());
    while !TERMINATE.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::park_timeout(std::time::Duration::from_millis(100));
    }

    // Graceful drain: stop admissions, finish what we can within the
    // deadline, then report and exit cleanly.
    eprintln!(
        "signal received; draining (deadline {} ms)",
        cfg.drain_deadline_ms
    );
    let report = service.drain(std::time::Duration::from_millis(cfg.drain_deadline_ms));
    server.shutdown();
    eprintln!(
        "drained: clean={} done={} failed={} shed_queued={} cancelled_in_flight={}",
        report.clean,
        report.jobs_done,
        report.jobs_failed,
        report.shed_queued,
        report.cancelled_in_flight
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.len() < 2 {
        return usage();
    }
    let Some(algo) = Algo::parse(&args[0]) else {
        eprintln!("unknown algorithm {}", args[0]);
        return usage();
    };
    let graph_spec = args[1].as_str();

    // flag parsing
    let mut src: u32 = 0;
    let mut msources: Vec<u32> = Vec::new();
    let mut batch_width: u32 = 32;
    let mut device = String::from("v100s");
    let mut undirected = false;
    let mut opts = OptConfig::all();
    let mut direction_explicit = false;
    let mut params = Params::default();
    let mut json = false;
    let mut profile = false;
    let mut sanitize = false;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut retry: u32 = 0;
    let mut checkpoint_every: u32 = 0;
    let mut devices: u32 = 1;
    let mut partition = PartitionSpec::Hash;
    let mut partition_explicit = false;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--src" => src = next_or!(it, usage),
            "--sources" => {
                msources = next_or!(it, usage, |list: &str| {
                    list.split(',').map(|v| v.trim().parse().ok()).collect()
                });
            }
            "--batch-width" => {
                batch_width = next_or!(it, usage, |v: &str| v
                    .parse()
                    .ok()
                    .filter(|w| matches!(w, 8 | 16 | 32 | 64)));
            }
            "--device" => device = next_or!(it, usage),
            "--undirected" => undirected = true,
            "--no-msi" => opts.msi = false,
            "--no-cf" => opts.coarsening = false,
            "--no-2lb" => opts.two_layer = false,
            "--balancing" => match it.next().map(String::as_str) {
                Some("wg") => opts.balancing = Balancing::WorkgroupMapped,
                Some("bucketed") => opts.balancing = Balancing::Bucketed,
                Some("auto") => opts.balancing = Balancing::Auto,
                _ => return usage(),
            },
            "--frontier" => match it.next().map(String::as_str) {
                Some("dense") => opts.representation = Representation::Dense,
                Some("sparse") => opts.representation = Representation::Sparse,
                Some("auto") => opts.representation = Representation::Auto,
                _ => return usage(),
            },
            "--direction" => {
                direction_explicit = true;
                match it.next().map(String::as_str) {
                    Some("push") => opts.direction = Direction::Push,
                    Some("pull") => opts.direction = Direction::Pull,
                    Some("auto") => opts.direction = Direction::Auto,
                    _ => return usage(),
                }
            }
            "--delta" => params.delta = next_or!(it, usage),
            "--k" => params.k = next_or!(it, usage),
            "--json" => json = true,
            "--profile" => profile = true,
            "--sanitize" => sanitize = true,
            "--inject-faults" => fault_plan = Some(next_or!(it, usage, parse_faults)),
            "--retry" => retry = next_or!(it, usage),
            "--checkpoint-every" => checkpoint_every = next_or!(it, usage),
            "--devices" => {
                devices = next_or!(it, usage, |v: &str| v.parse().ok().filter(|&d| d >= 1))
            }
            "--partition" => {
                partition = next_or!(it, usage, PartitionSpec::parse);
                partition_explicit = true;
            }
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }

    let Some(profile_dev) = DeviceProfile::by_name(&device) else {
        eprintln!("unknown device {device}");
        return usage();
    };

    let mut host = match load_graph_spec(graph_spec) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error loading graph: {e}");
            return ExitCode::FAILURE;
        }
    };
    if undirected || algo.needs_symmetric() {
        host = match host.to_undirected() {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error loading graph: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if host.vertex_count() == 0 {
        eprintln!("graph is empty");
        return ExitCode::FAILURE;
    }
    // The same typed boundary check the service request path uses: an
    // out-of-range --src/--sources is rejected here, never handed to the
    // engine where it would wrap or panic.
    if let Err(e) = validate_sources(host.vertex_count(), &[src])
        .and_then(|()| validate_sources(host.vertex_count(), &msources))
    {
        let e: sygraph_sim::SimError = e.into();
        eprintln!("run failed: {e}");
        return ExitCode::FAILURE;
    }

    if retry > 0 || checkpoint_every > 0 {
        opts.recovery = RecoveryPolicy {
            max_retries: retry,
            backoff_ns: 1_000,
            degrade_on_oom: retry > 0,
            checkpoint_every,
        };
    }

    // A --sources batch (and the inherently multi-source algorithms) runs
    // batched; --devices/--partition shard the graph.
    let mode = if devices > 1 || partition_explicit {
        Mode::Partitioned
    } else if !msources.is_empty() || !algo.supports(Mode::Single) {
        Mode::Batched
    } else {
        Mode::Single
    };
    if mode == Mode::Partitioned {
        if sanitize {
            eprintln!("--sanitize is single-device only");
            return ExitCode::FAILURE;
        }
        if !msources.is_empty() {
            eprintln!("--sources is single-device only");
            return ExitCode::FAILURE;
        }
    }
    if !algo.supports(mode) {
        let flag = if mode == Mode::Partitioned {
            "--devices"
        } else {
            "--sources"
        };
        eprintln!("{flag} supports {}, not {}", mode.names(), algo.label());
        return usage();
    }
    // One queue per partition; `devices` is 1 unless the run is sharded.
    let mut queues: Vec<Queue> = (0..devices)
        .map(|_| {
            let device = Device::new(profile_dev.clone());
            if sanitize {
                // Fixed seed so a reported order dependence reproduces exactly.
                Queue::with_sanitizer(device, 0xBADC0DE)
            } else {
                Queue::new(device)
            }
        })
        .collect();
    // A fault plan lands on the first queue; in a partitioned run the other
    // partitions keep running and the exchange carries them through that
    // partition's checkpoint resume.
    if let Some(plan) = fault_plan {
        queues[0].attach_faults(plan);
    }
    let q = &queues[0];

    let mut doc = HashMap::new();
    let mut target = profile_dev.name.clone();
    let mut sharded = None;
    let result = if mode == Mode::Partitioned {
        let pg = PartitionedGraph::build(&host, partition, devices);
        algo.run_partitioned(&queues, &pg, src, &opts, ExchangeConfig::default())
            .map(|r| {
                target += &format!(" \u{d7}{devices} devices, {} partition", partition.label());
                doc.insert("devices", json!(devices));
                doc.insert("partition", json!(partition.label()));
                doc.insert("supersteps", json!(r.supersteps));
                doc.insert("exchange_words", json!(r.exchange.words));
                doc.insert("exchange_msgs", json!(r.exchange.msgs));
                doc.insert("exchange_bytes", json!(r.exchange.bytes));
                doc.insert("checkpoint_resumes", json!(r.resumes));
                doc.insert("values", json!(r.values));
                let out = (r.supersteps, r.sim_ms, r.values.summary());
                sharded = Some((pg, r));
                out
            })
    } else {
        // Algorithms that need the CSC view get it; other traversals only
        // pay for it when the user opts into a pull-capable direction.
        let needs_pull =
            algo.needs_pull(mode) || (direction_explicit && opts.direction != Direction::Push);
        let g = match if needs_pull {
            Graph::with_pull(q, &host)
        } else {
            Graph::new(q, &host)
        } {
            Ok(g) => g,
            Err(e) => {
                eprintln!("device error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if mode == Mode::Batched {
            let srcs = if msources.is_empty() {
                vec![src]
            } else {
                msources
            };
            algo.run_batched(q, &g, &srcs, batch_width, &opts).map(|r| {
                doc.insert("sources", json!(r.sources));
                doc.insert("batches", json!(r.batches));
                doc.insert("batch_width", json!(batch_width));
                doc.insert("values", r.values);
                let summary = format!(
                    "{} ({} batches of width {batch_width})",
                    r.summary, r.batches
                );
                (r.iterations, r.sim_ms, summary)
            })
        } else {
            algo.run_single(q, &g, src, params, &opts).map(|r| {
                doc.insert("values", json!(r.values));
                (r.iterations, r.sim_ms, r.values.summary())
            })
        }
    };
    let (iterations, sim_ms, summary) = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Simulated kernel time per queue, and the load imbalance the edge-cut
    // produced across partitions.
    let part_ms: Vec<f64> = queues
        .iter()
        .map(|q| {
            q.profiler()
                .kernels()
                .iter()
                .map(|k| k.stats.total_ns() / 1e6)
                .sum()
        })
        .collect();
    let max_ms = part_ms.iter().copied().fold(0f64, f64::max);
    let mean_ms = part_ms.iter().sum::<f64>() / part_ms.len() as f64;
    let imbalance = if mean_ms > 0.0 { max_ms / mean_ms } else { 1.0 };
    let recovery_events: usize = queues.iter().map(|q| q.profiler().recovery_count()).sum();

    if json {
        doc.insert("algo", json!(algo.label()));
        doc.insert("graph", json!(graph_spec));
        doc.insert("device", json!(profile_dev.name));
        doc.insert("vertices", json!(host.vertex_count()));
        doc.insert("edges", json!(host.edge_count()));
        doc.insert("iterations", json!(iterations));
        doc.insert("sim_ms", json!(sim_ms));
        doc.insert("recovery_events", json!(recovery_events));
        if sharded.is_some() {
            doc.insert("load_imbalance", json!(imbalance));
        }
        println!("{}", serde_json::to_string(&doc).unwrap());
    } else {
        println!(
            "{} on {graph_spec} ({} vertices, {} edges) @ {target}",
            algo.label(),
            host.vertex_count(),
            host.edge_count()
        );
        println!("  {iterations} supersteps, {sim_ms:.3} simulated ms — {summary}");
        if let Some((_, r)) = &sharded {
            let x = &r.exchange;
            println!(
                "  exchange: {} B in {} msgs over {} words ({} supersteps moved bytes)",
                x.bytes,
                x.msgs,
                x.words,
                r.per_superstep.len()
            );
            if recovery_events > 0 || r.resumes > 0 {
                println!(
                    "  recovery: {recovery_events} events, {} checkpoint resumes",
                    r.resumes
                );
            }
        } else {
            let recov = q.profiler().recovery_events();
            if !recov.is_empty() {
                let mut counts: Vec<(String, usize)> = Vec::new();
                for e in &recov {
                    let key = format!("{}->{}", e.fault, e.action);
                    match counts.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((key, 1)),
                    }
                }
                let parts: Vec<String> = counts
                    .iter()
                    .map(|(k, c)| format!("{k}\u{d7}{c}"))
                    .collect();
                println!("  recovery: {} events ({})", recov.len(), parts.join(", "));
            }
        }
    }

    if profile {
        match &sharded {
            Some((pg, r)) => print_sharded_profile(&queues, pg, &part_ms, imbalance, r),
            None => print_profile(q),
        }
    }

    if let Some(san) = q.sanitizer() {
        println!("{}", san.report());
        if !san.is_clean() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `--profile` report of a one-device run.
fn print_profile(q: &Queue) {
    println!("  kernel profile:");
    for (name, (ms, count, imbalance, idle)) in kernel_table(std::slice::from_ref(q)) {
        println!(
            "    {name:<22} {ms:>9.3} ms  ×{count:<5} imbal {imbalance:>6.2}×  idle {:>5.1}%",
            idle * 100.0
        );
    }
    // Per-superstep frontier-representation trace (recorded by the
    // engine whenever the run went through it), run-length encoded,
    // plus greppable switch counters and the frontier-maintenance
    // kernel cost split by representation.
    let reps = q.profiler().rep_events();
    if !reps.is_empty() {
        println!(
            "  frontier representation: {}",
            rle(reps.iter().map(|e| &e.rep))
        );
        let switches = |to: &str| reps.iter().filter(|e| e.switched && e.rep == to).count();
        println!("  sparse->dense switches: {}", switches("dense"));
        println!("  dense->sparse switches: {}", switches("sparse"));
        let cost_of = |names: &[&str]| -> f64 {
            q.profiler()
                .kernels()
                .iter()
                .filter(|k| names.contains(&k.name.as_str()))
                .map(|k| k.stats.total_ns() / 1e6)
                .sum()
        };
        println!(
            "  frontier maintenance: dense compaction {:.3} ms, sparse upkeep {:.3} ms",
            cost_of(&["frontier_compact", "frontier_lazy_clear"]),
            cost_of(&[
                "frontier_sparsify",
                "frontier_densify",
                "frontier_sparse_lazy_clear"
            ]),
        );
    }
    // Per-superstep traversal-direction trace (push/pull), run-length
    // encoded like the representation trace above.
    let dirs = q.profiler().direction_events();
    if !dirs.is_empty() {
        println!(
            "  traversal direction: {}",
            rle(dirs.iter().map(|e| &e.direction))
        );
        println!(
            "  direction switches: {}",
            q.profiler().direction_switch_count()
        );
    }
    // Per-superstep active-lane trace for multi-source runs,
    // run-length encoded like the representation/direction traces.
    let lanes = q.profiler().lane_events();
    if !lanes.is_empty() {
        println!("  active lanes: {}", rle(lanes.iter().map(|e| e.active)));
        println!("  lanes retired: {}", q.profiler().lane_retired_count());
    }
    print_recovery(q, "  ");
    println!("  device memory peak: {} KB", q.device().mem_peak() / 1024);
}

/// The `--profile` report of a partitioned run: per-device rows, the
/// merged kernel table and the per-superstep exchange.
fn print_sharded_profile(
    queues: &[Queue],
    pg: &PartitionedGraph,
    part_ms: &[f64],
    imbalance: f64,
    r: &PartitionedRun<Values>,
) {
    println!("  multi-device profile:");
    for (p, q) in queues.iter().enumerate() {
        let launches = q.profiler().kernels().len();
        println!(
            "    device {p}: owned {:>8}, halo {:>7}, kernel {:>9.3} ms \u{d7}{launches:<5} launches, exch out {:>10} B, mem peak {} KB",
            pg.parts[p].owned,
            pg.parts[p].halo.len(),
            part_ms[p],
            q.profiler().exchange_byte_total(),
            q.device().mem_peak() / 1024
        );
    }
    println!("    load imbalance (max/mean kernel ms): {imbalance:.2}\u{d7}");
    println!("    merged kernel profile (all devices):");
    for (name, (ms, count, _, _)) in kernel_table(queues) {
        println!("      {name:<26} {ms:>9.3} ms  \u{d7}{count}");
    }
    if !r.per_superstep.is_empty() {
        println!("    exchange per superstep:");
        for x in &r.per_superstep {
            println!(
                "      superstep {:>4}: {:>7} words, {:>7} msgs, {:>9} B, {:>7} accepted",
                x.superstep, x.words, x.msgs, x.bytes, x.accepted
            );
        }
    }
    for (p, q) in queues.iter().enumerate() {
        print_recovery(q, &format!("    device {p} "));
    }
}

/// Per-kernel-name totals over `queues`, slowest first: (ms, launches,
/// worst max/mean group-cycle imbalance, worst idle-lane fraction).
fn kernel_table(queues: &[Queue]) -> Vec<(String, (f64, usize, f64, f64))> {
    let mut per: HashMap<String, (f64, usize, f64, f64)> = HashMap::new();
    for k in queues.iter().flat_map(|q| q.profiler().kernels()) {
        let e = per.entry(k.name).or_insert((0.0, 0, 1.0, 0.0));
        e.0 += k.stats.total_ns() / 1e6;
        e.1 += 1;
        e.2 = e.2.max(k.stats.load_imbalance());
        e.3 = e.3.max(k.stats.idle_lane_fraction());
    }
    let mut rows: Vec<_> = per.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    rows
}

/// Prints `q`'s recovery events, one line each.
fn print_recovery(q: &Queue, indent: &str) {
    for e in q.profiler().recovery_events() {
        println!(
            "{indent}recovery @superstep {:>4}: {} -> {} (attempt {}, t={:.3} ms)",
            e.superstep,
            e.fault,
            e.action,
            e.attempt,
            e.t_ns / 1e6
        );
    }
}

/// Run-length encodes a per-superstep trace: `a×3 -> b×1`.
fn rle<T: PartialEq + std::fmt::Display>(trace: impl Iterator<Item = T>) -> String {
    let mut runs: Vec<(T, usize)> = Vec::new();
    for x in trace {
        match runs.last_mut() {
            Some((y, c)) if *y == x => *c += 1,
            _ => runs.push((x, 1)),
        }
    }
    let runs: Vec<String> = runs.iter().map(|(x, c)| format!("{x}\u{d7}{c}")).collect();
    runs.join(" -> ")
}
