//! The algorithm registry must be a pure router: for every algorithm and
//! every mode it supports, a registry run equals the direct call of the
//! per-algorithm entry point on the 4-dataset test suite — the same
//! superstep count, the same values (bit for bit; PageRank and BC to the
//! tolerance of `algorithms_vs_reference.rs`, since their float atomics
//! add in scheduling order) and the same kernel launch sequence.

use serde::{Serialize, Value};
use sygraph_algos::registry::{Algo, Mode, Params, Values};
use sygraph_algos::{bc, bfs, cc, delta, dobfs, kcore, multi, pagerank, partitioned, sssp};
use sygraph_algos::{triangles, AlgoResult};
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::graph::{CsrHost, Graph, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::{Direction, OptConfig};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_service::{JobRequest, JobState, RegisterOptions, Service, ServiceConfig};
use sygraph_sim::{Device, DeviceProfile, Queue};

fn four_datasets() -> Vec<Dataset> {
    vec![
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ]
}

/// A one-CU device: its workgroups run in one fixed order, so even the
/// algorithms whose relaxations race within a superstep (label
/// propagation, Bellman-Ford) repeat their superstep counts exactly.
fn profile() -> DeviceProfile {
    DeviceProfile {
        compute_units: 1,
        ..DeviceProfile::host_test()
    }
}

fn queue() -> Queue {
    Queue::new(Device::new(profile()))
}

fn kernel_names(q: &Queue) -> Vec<String> {
    q.profiler().kernels().into_iter().map(|k| k.name).collect()
}

fn input(d: &Dataset, algo: Algo) -> CsrHost {
    if algo.needs_symmetric() {
        d.host.to_undirected().unwrap()
    } else {
        d.host.clone()
    }
}

fn upload(q: &Queue, host: &CsrHost, pull: bool) -> Graph {
    if pull {
        Graph::with_pull(q, host).unwrap()
    } else {
        Graph::new(q, host).unwrap()
    }
}

/// Float algorithms whose atomics make the values order-dependent.
fn tolerant(algo: Algo) -> bool {
    matches!(algo, Algo::Pagerank | Algo::Bc)
}

fn assert_close(algo: Algo, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        let ok = if !tolerant(algo) {
            a.to_bits() == b.to_bits()
        } else if algo == Algo::Pagerank {
            (a - b).abs() < 1e-3
        } else {
            (a - b).abs() < 1e-2 * (1.0 + b.abs())
        };
        assert!(ok, "{what}: vertex {v}: {a} vs {b}");
    }
}

fn as_f64(v: &Values) -> Vec<f64> {
    match v {
        Values::U32(v) => v.iter().map(|&x| x as f64).collect(),
        Values::F32(v) => v.iter().map(|&x| x as f64).collect(),
    }
}

fn flatten(v: &Value, out: &mut Vec<f64>) {
    match v {
        Value::Array(items) => items.iter().for_each(|x| flatten(x, out)),
        Value::Bool(b) => out.push(*b as u8 as f64),
        Value::Int(i) => out.push(*i as f64),
        Value::UInt(u) => out.push(*u as f64),
        Value::Float(f) => out.push(*f),
        other => panic!("unexpected value {other:?}"),
    }
}

fn flat(v: &Value) -> Vec<f64> {
    let mut out = Vec::new();
    flatten(v, &mut out);
    out
}

/// The direct single-device call for `algo`, written out independently
/// of the registry's table.
fn direct_single(q: &Queue, g: &Graph, algo: Algo, src: u32, p: Params) -> (Values, u32) {
    fn pack<T>(r: AlgoResult<T>, wrap: fn(Vec<T>) -> Values) -> (Values, u32) {
        (wrap(r.values), r.iterations)
    }
    let opts = &OptConfig::all();
    match algo {
        Algo::Bfs => pack(bfs::run(q, g, src, opts).unwrap(), Values::U32),
        Algo::Sssp => pack(sssp::run(q, &g.csr, src, opts).unwrap(), Values::F32),
        Algo::Cc => pack(cc::run(q, g, opts).unwrap(), Values::U32),
        Algo::Bc => pack(bc::run(q, &g.csr, src, opts).unwrap(), Values::F32),
        Algo::Pagerank => pack(
            pagerank::run(q, &g.csr, opts, Default::default()).unwrap(),
            Values::F32,
        ),
        Algo::Dobfs => pack(dobfs::run(q, g, src, opts).unwrap(), Values::U32),
        Algo::Delta => pack(
            delta::run(q, &g.csr, src, opts, p.delta).unwrap(),
            Values::F32,
        ),
        Algo::Triangles => pack(triangles::run(q, &g.csr, opts).unwrap(), Values::U32),
        Algo::Kcore => pack(kcore::run(q, &g.csr, p.k, opts).unwrap(), Values::U32),
        Algo::Closeness | Algo::Reach => unreachable!("batched only"),
    }
}

/// The direct batched call: (sources, per-source values as JSON,
/// iterations).
fn direct_batched(q: &Queue, g: &Graph, algo: Algo, srcs: &[u32], width: u32) -> (Value, u32) {
    let opts = &OptConfig::all();
    match algo {
        Algo::Bfs => {
            let r = multi::bfs_multi(q, &g.csr, srcs, width, opts).unwrap();
            (r.per_source.serialize_value(), r.iterations)
        }
        Algo::Bc => {
            let r = multi::bc_multi(q, g, srcs, width, opts).unwrap();
            (r.per_source.serialize_value(), r.iterations)
        }
        Algo::Closeness => {
            let r = multi::closeness_multi(q, &g.csr, srcs, width, opts).unwrap();
            (r.scores.serialize_value(), r.iterations)
        }
        Algo::Reach => {
            let r = multi::reachability_multi(q, &g.csr, srcs, width, opts).unwrap();
            (r.per_source.serialize_value(), r.iterations)
        }
        _ => unreachable!("no batched mode"),
    }
}

fn direct_partitioned(qs: &[Queue], pg: &PartitionedGraph, algo: Algo, src: u32) -> (Values, u32) {
    let (opts, x) = (&OptConfig::all(), ExchangeConfig::default());
    match algo {
        Algo::Bfs => {
            let r = partitioned::bfs(qs, pg, src, opts, x).unwrap();
            (Values::U32(r.values), r.supersteps)
        }
        Algo::Sssp => {
            let r = partitioned::sssp(qs, pg, src, opts, x).unwrap();
            (Values::F32(r.values), r.supersteps)
        }
        Algo::Cc => {
            let r = partitioned::cc(qs, pg, opts, x).unwrap();
            (Values::U32(r.values), r.supersteps)
        }
        _ => unreachable!("no partitioned mode"),
    }
}

#[test]
fn single_mode_matches_direct_entry_points() {
    let params = Params { delta: 3.0, k: 3 };
    for d in four_datasets() {
        let src = (d.host.vertex_count() / 2) as u32;
        for algo in Algo::ALL.into_iter().filter(|a| a.supports(Mode::Single)) {
            let host = input(&d, algo);
            let pull = algo.needs_pull(Mode::Single);
            let what = format!("{} on {}", algo.label(), d.key);

            let qr = queue();
            let gr = upload(&qr, &host, pull);
            let got = algo
                .run_single(&qr, &gr, src, params, &OptConfig::all())
                .unwrap();

            let qd = queue();
            let gd = upload(&qd, &host, pull);
            let (want, iterations) = direct_single(&qd, &gd, algo, src, params);

            assert_eq!(got.iterations, iterations, "{what}: iterations");
            assert_close(algo, &what, &as_f64(&got.values), &as_f64(&want));
            assert_eq!(kernel_names(&qr), kernel_names(&qd), "{what}: kernels");
        }
    }
}

#[test]
fn batched_mode_matches_direct_entry_points() {
    for d in four_datasets() {
        let n = d.host.vertex_count() as u32;
        let srcs = [0, n / 3, n / 2, n - 1];
        for algo in Algo::ALL.into_iter().filter(|a| a.supports(Mode::Batched)) {
            let pull = algo.needs_pull(Mode::Batched);
            let what = format!("batched {} on {}", algo.label(), d.key);

            let qr = queue();
            let gr = upload(&qr, &d.host, pull);
            let got = algo
                .run_batched(&qr, &gr, &srcs, 8, &OptConfig::all())
                .unwrap();

            let qd = queue();
            let gd = upload(&qd, &d.host, pull);
            let (want, iterations) = direct_batched(&qd, &gd, algo, &srcs, 8);

            assert_eq!(got.sources, srcs, "{what}: sources");
            assert_eq!(got.batches, 1, "{what}: batches");
            assert_eq!(got.iterations, iterations, "{what}: iterations");
            assert_close(algo, &what, &flat(&got.values), &flat(&want));
            assert_eq!(kernel_names(&qr), kernel_names(&qd), "{what}: kernels");
        }
    }
}

#[test]
fn partitioned_mode_matches_direct_entry_points() {
    let queues = || -> Vec<Queue> { (0..2).map(|_| queue()).collect() };
    for d in four_datasets() {
        let src = (d.host.vertex_count() / 2) as u32;
        for algo in Algo::ALL
            .into_iter()
            .filter(|a| a.supports(Mode::Partitioned))
        {
            let pg = PartitionedGraph::build(&input(&d, algo), PartitionSpec::Hash, 2);
            let what = format!("partitioned {} on {}", algo.label(), d.key);

            let qr = queues();
            let got = algo
                .run_partitioned(&qr, &pg, src, &OptConfig::all(), ExchangeConfig::default())
                .unwrap();
            let qd = queues();
            let (want, supersteps) = direct_partitioned(&qd, &pg, algo, src);

            assert_eq!(got.supersteps, supersteps, "{what}: supersteps");
            assert!(got.values.bits_eq(&want), "{what}: values");
            for (a, b) in qr.iter().zip(&qd) {
                assert_eq!(kernel_names(a), kernel_names(b), "{what}: kernels");
            }
        }
    }
}

#[test]
fn unsupported_modes_are_typed_errors() {
    let q = queue();
    let g = Graph::new(&q, &datasets::road_ca(Scale::Test).host).unwrap();
    let opts = OptConfig::all();
    let err = Algo::Reach
        .run_single(&q, &g, 0, Params::default(), &opts)
        .unwrap_err();
    assert!(err.to_string().contains("bfs|sssp|cc|bc"), "{err}");
    assert!(Algo::Sssp.run_batched(&q, &g, &[0], 8, &opts).is_err());
}

#[test]
fn names_round_trip_and_unknown_names_are_typed_400s() {
    for algo in Algo::ALL {
        assert_eq!(Algo::parse(algo.label()), Some(algo));
    }
    assert_eq!(Algo::parse("pr"), Some(Algo::Pagerank));
    assert_eq!(Algo::parse("delta-sssp"), Some(Algo::Delta));
    assert_eq!(Algo::parse("tarjan"), None);

    let service = Service::start(ServiceConfig::default()).unwrap();
    let host = CsrHost::from_edges(3, &[(0, 1), (1, 2)]);
    service
        .register_graph("line", host, RegisterOptions::default())
        .unwrap();
    // Unknown everywhere, and known to the registry but not served.
    for name in ["tarjan", "dobfs"] {
        let err = service
            .submit(JobRequest::rooted("line", name, 0))
            .unwrap_err();
        assert_eq!(err.http_status(), 400, "{name}");
    }
    service.shutdown();
}

/// Serial service BFS stays push-only on a pull-registered graph, so it
/// launches exactly the kernels of `bfs::run` on the CSR.
#[test]
fn service_serial_bfs_is_push_only_on_pull_graphs() {
    let d = datasets::kron(Scale::Test);
    let src = 1;

    let qc = queue();
    let gc = Graph::new(&qc, &d.host).unwrap();
    let push = bfs::run(&qc, &gc.csr, src, &OptConfig::all()).unwrap();

    // The registry call the scheduler makes, on a pull-capable graph.
    let qs = queue();
    let gs = Graph::with_pull(&qs, &d.host).unwrap();
    let before = qs.profiler().kernels().len();
    let opts = OptConfig::with_direction(Direction::Push);
    let via_registry = Algo::Bfs
        .run_single(&qs, &gs, src, Params::default(), &opts)
        .unwrap();
    let serial: Vec<String> = kernel_names(&qs).split_off(before);
    assert_eq!(serial, kernel_names(&qc));
    assert!(via_registry
        .values
        .bits_eq(&Values::U32(push.values.clone())));

    // The same graph pulls when the direction is left to the engine, so
    // the push pin is what keeps the sequence equal.
    let qa = queue();
    let ga = Graph::with_pull(&qa, &d.host).unwrap();
    bfs::run(&qa, &ga, src, &OptConfig::all()).unwrap();
    assert!(kernel_names(&qa).iter().any(|k| k.contains("pull")));

    // End to end through the service.
    let config = ServiceConfig {
        profile: profile(),
        ..ServiceConfig::default()
    };
    let service = Service::start(config).unwrap();
    let options = RegisterOptions {
        pull: true,
        ..RegisterOptions::default()
    };
    service
        .register_graph("kron", d.host.clone(), options)
        .unwrap();
    let mut req = JobRequest::rooted("kron", "bfs", src);
    req.no_coalesce = Some(true);
    let rec = service.wait(service.submit(req).unwrap()).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(rec.metrics.iterations, push.iterations);
    assert_eq!(
        rec.metrics.kernel_launches as usize,
        kernel_names(&qc).len()
    );
    assert!(rec.values.unwrap().bits_eq(&Values::U32(push.values)));
    service.shutdown();
}
