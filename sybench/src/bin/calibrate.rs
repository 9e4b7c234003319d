//! Calibration figures the benchmark's constants and doc rest on:
//!
//! - the saturation throughput of serve-mixed's request mix, in-process
//!   with 8 requests in flight, uncoalesced and coalesced, from which the
//!   fixed `LOW_RPS` / `HIGH_RPS` are chosen;
//! - the run-to-run spread of modelled time (`AlgoResult::sim_ms`) and of
//!   the result bits over identical runs.
//!
//! `cargo run --release --offline --manifest-path sybench/Cargo.toml --bin calibrate -- [seed] [seconds]`

use sybench::library::HostData;
use sybench::workload::{self, Algo, Job};
use sybench::{serve, solve};
use sygraph_gen::{datasets, Scale};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds = args.next().and_then(|s| s.parse().ok()).unwrap_or(20.0);

    let kron = HostData::new("kron", datasets::kron(Scale::Bench).host);
    let usa = HostData::new("usa", datasets::road_usa(Scale::Bench).host);
    let kron_src = workload::reaching_sources(&kron.host, seed, 1, 1)[0];
    let usa_src = workload::road_sources(&usa.host, seed, 1)[0];
    let cases = [
        (&kron, Algo::Bfs, Some(kron_src)),
        (&kron, Algo::Pagerank, None),
        (&usa, Algo::Bfs, Some(usa_src)),
    ];
    for (data, algo, source) in cases {
        let job = Job {
            dataset: data.key,
            algo,
            source,
        };
        let runs = solve::repeat_identical(data, &job, 5);
        let ms: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let lo = ms.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ms.iter().copied().fold(0.0, f64::max);
        let mut prints: Vec<u64> = runs.iter().map(|r| r.1).collect();
        prints.sort_unstable();
        prints.dedup();
        println!(
            "{}.{} from {source:?}, 5 identical runs: sim_ms {lo:.6}..{hi:.6} (spread {:.4}%), {} distinct result fingerprints",
            algo.label(),
            data.key,
            (hi - lo) / lo * 100.0,
            prints.len()
        );
    }

    let [uncoalesced, coalesced] = serve::calibrate(seed, seconds, 8);
    println!(
        "serve-mixed saturation: {uncoalesced:.2} reads/s uncoalesced, {coalesced:.2} reads/s coalesced"
    );
}
