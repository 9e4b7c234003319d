//! The same seed yields the same job lists, serve schedule and write
//! perturbations; another seed yields other ones with the same mix.

use sybench::workload::{self, Op, Phase};
use sygraph_gen::{datasets, Scale};

#[test]
fn solve_job_lists_follow_the_seed() {
    let usa = datasets::road_usa(Scale::Test).host;
    let kron = datasets::kron(Scale::Test).host;
    let twitter = datasets::twitter(Scale::Test).host;
    let road = |seed| workload::solve_road_jobs(&usa, seed);
    let scalefree = |seed| workload::solve_scalefree_jobs(&kron, &twitter, seed);
    assert_eq!(road(7), road(7));
    assert_eq!(scalefree(7), scalefree(7));
    assert_ne!(road(7), road(8));
    assert_ne!(scalefree(7), scalefree(8));
    let algos =
        |jobs: Vec<workload::Job>| jobs.iter().map(|j| (j.dataset, j.algo)).collect::<Vec<_>>();
    assert_eq!(
        algos(road(7)),
        algos(road(8)),
        "the seed picks sources, not algorithms"
    );
    assert_eq!(algos(scalefree(7)), algos(scalefree(8)));
}

#[test]
fn road_sources_stay_in_the_eccentricity_band() {
    let usa = datasets::road_usa(Scale::Test).host;
    let eccs: Vec<u32> = (1..6)
        .flat_map(|seed| workload::road_sources(&usa, seed, 3))
        .map(|s| workload::eccentricity(&usa, s))
        .collect();
    let (lo, hi) = (eccs.iter().min().unwrap(), eccs.iter().max().unwrap());
    assert!(hi - lo <= 2 * (hi / 20).max(1), "eccentricities {eccs:?}");
}

#[test]
fn serve_schedule_and_writes_follow_the_seed() {
    let kron = datasets::kron(Scale::Test).host.to_undirected().unwrap();
    let ca = datasets::road_ca(Scale::Test).host;
    let schedule = |seed| {
        let pools = workload::serve_pools(&kron, &ca, seed);
        workload::serve_schedule(&pools, seed, 20.0, 5.0, 10.0)
    };
    let (a, b) = (schedule(3), schedule(4));
    assert_eq!(a, schedule(3));
    assert_ne!(a, b);
    // Exactly rate × phase requests per phase, in time order.
    for s in [&a, &b] {
        assert_eq!(s.iter().filter(|r| r.phase == Phase::Low).count(), 50);
        assert_eq!(s.iter().filter(|r| r.phase == Phase::High).count(), 100);
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }
    // The mix is fixed; only sources and times move with the seed.
    let classes = |s: &[workload::Request]| {
        let mut c: Vec<String> = s
            .iter()
            .map(|r| match r.op {
                Op::Read(j) => format!("{:?} {} {}", r.phase, j.dataset, j.algo.label()),
                Op::Write(_) => format!("{:?} write", r.phase),
            })
            .collect();
        c.sort();
        c
    };
    assert_eq!(classes(&a), classes(&b));
    let writes = workload::write_count(&a);
    assert!(writes > 0);
    assert_eq!(
        workload::perturbed_weights(&ca, 3, 0),
        workload::perturbed_weights(&ca, 3, 0)
    );
    assert_ne!(
        workload::perturbed_weights(&ca, 3, 0),
        workload::perturbed_weights(&ca, 3, 1)
    );
    assert_ne!(
        workload::perturbed_weights(&ca, 3, 0),
        workload::perturbed_weights(&ca, 4, 0)
    );
}
