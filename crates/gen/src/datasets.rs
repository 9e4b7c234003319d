//! The paper's dataset suite (Table 3), reproduced by deterministic
//! generators at simulation-friendly scales.
//!
//! Each generated dataset preserves the property that drives its
//! performance behaviour in the paper: road networks keep tiny uniform
//! degrees and a huge diameter; social graphs keep hub-dominated skew and
//! a small diameter; the web crawl keeps bursty out-degrees and locality;
//! the Kronecker graph keeps R-MAT self-similar skew (its duplicate-heavy
//! frontiers are what separates SYgraph from Gunrock on `kron`).

use serde::{Deserialize, Serialize};
use sygraph_core::graph::CsrHost;

use crate::road::RoadParams;
use crate::webgraph::WebParams;
use crate::{powerlaw, rmat, road, webgraph};

/// Structural family of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Large diameter, uniform small degree (roadNet-CA, road-USA).
    Road,
    /// Scale-free social network (hollywood-2009, LiveJournal).
    Social,
    /// Web crawl with bursty out-degree (indochina-2004).
    Web,
    /// R-MAT synthetic (kron-g500, and twitter's stand-in).
    Synthetic,
}

/// Generation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny graphs for unit/integration tests (hundreds of vertices).
    Test,
    /// Bench scale: tens of thousands of vertices, 10⁵–10⁶ edges —
    /// large enough for the performance phenomena, small enough to
    /// simulate thousands of kernel launches in seconds.
    Bench,
}

impl Scale {
    /// Reads the scale from `SYG_SCALE`: `test` selects [`Scale::Test`],
    /// anything else (or unset) [`Scale::Bench`].
    pub fn from_env() -> Scale {
        match std::env::var("SYG_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            _ => Scale::Bench,
        }
    }
}

/// A generated dataset plus the Table 3 metadata of its full-size
/// counterpart.
pub struct Dataset {
    /// Short key used in the paper's figures: ca, usa, hollyw, indo,
    /// journal, kron, twitter.
    pub key: &'static str,
    /// Full dataset name as in Table 3.
    pub name: &'static str,
    pub kind: DatasetKind,
    /// The generated graph (directed CSR; weights on road graphs).
    pub host: CsrHost,
    /// Vertices of the real dataset.
    pub paper_vertices: u64,
    /// Edges of the real dataset.
    pub paper_edges: u64,
}

impl Dataset {
    /// Edge-count ratio of the generated graph to the real dataset —
    /// used to scale device VRAM so framework OOM behaviour carries over.
    pub fn scale_ratio(&self) -> f64 {
        self.host.edge_count() as f64 / self.paper_edges as f64
    }

    /// Symmetrized copy for component-style algorithms. Generated
    /// datasets are structurally valid by construction, so this stays
    /// infallible.
    pub fn undirected(&self) -> CsrHost {
        self.host
            .to_undirected()
            .expect("generated datasets are structurally valid")
    }
}

fn build(
    key: &'static str,
    name: &'static str,
    kind: DatasetKind,
    host: CsrHost,
    paper_vertices: u64,
    paper_edges: u64,
) -> Dataset {
    debug_assert!(host.validate().is_ok());
    Dataset {
        key,
        name,
        kind,
        host,
        paper_vertices,
        paper_edges,
    }
}

/// roadNet-CA stand-in: 2 M vertices / 2.8 M edges at full size.
pub fn road_ca(scale: Scale) -> Dataset {
    let side = match scale {
        Scale::Test => 18,
        Scale::Bench => 150,
    };
    let el = road::generate(
        side,
        side,
        RoadParams {
            street_prob: 0.80,
            diagonal_prob: 0.03,
            weighted: true,
        },
        0xCA,
    );
    let host = CsrHost::from_edges_weighted(el.n, &el.edges, el.weights.as_deref());
    build(
        "ca",
        "roadNet-CA",
        DatasetKind::Road,
        host,
        2_000_000,
        2_800_000,
    )
}

/// road-USA stand-in: 23.9 M vertices / 28.9 M edges at full size.
pub fn road_usa(scale: Scale) -> Dataset {
    let side = match scale {
        Scale::Test => 24,
        Scale::Bench => 240,
    };
    let el = road::generate(
        side,
        side,
        RoadParams {
            street_prob: 0.70,
            diagonal_prob: 0.0,
            weighted: true,
        },
        0x05A,
    );
    let host = CsrHost::from_edges_weighted(el.n, &el.edges, el.weights.as_deref());
    build(
        "usa",
        "road-USA",
        DatasetKind::Road,
        host,
        23_900_000,
        28_900_000,
    )
}

/// Hollywood-2009 stand-in: 1.1 M vertices / 56.9 M edges at full size.
pub fn hollywood(scale: Scale) -> Dataset {
    let (n, m_per) = match scale {
        Scale::Test => (400, 8),
        Scale::Bench => (16_000, 24),
    };
    let el = powerlaw::generate(n, m_per, 0x0111);
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "hollyw",
        "Hollywood-2009",
        DatasetKind::Social,
        host,
        1_100_000,
        56_900_000,
    )
}

/// Indochina-2004 stand-in: 7.4 M vertices / 194.1 M edges at full size.
pub fn indochina(scale: Scale) -> Dataset {
    let (n, avg) = match scale {
        Scale::Test => (500, 8),
        Scale::Bench => (20_000, 26),
    };
    let el = webgraph::generate(
        n,
        WebParams {
            avg_out: avg,
            ..WebParams::default()
        },
        0x1D0,
    );
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "indo",
        "Indochina-2004",
        DatasetKind::Web,
        host,
        7_400_000,
        194_100_000,
    )
}

/// Larger Indochina instance for the Figure 7 ablation: the two-layer
/// bitmap's benefit — not scheduling workgroups onto all-zero words —
/// only shows once the bitmap has enough words that sweeping them
/// dominates (the full dataset has 230 k words; this instance has ~7 k,
/// the bench-scale one only 625).
pub fn indochina_fig7() -> Dataset {
    let el = webgraph::generate(
        240_000,
        WebParams {
            avg_out: 14,
            ..WebParams::default()
        },
        0x1D0,
    );
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "indo",
        "Indochina-2004",
        DatasetKind::Web,
        host,
        7_400_000,
        194_100_000,
    )
}

/// LiveJournal stand-in: 4.8 M vertices / 69 M edges at full size.
pub fn livejournal(scale: Scale) -> Dataset {
    let (n, m_per) = match scale {
        Scale::Test => (400, 6),
        Scale::Bench => (20_000, 14),
    };
    let el = powerlaw::generate(n, m_per, 0x10A);
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "journal",
        "LiveJournal",
        DatasetKind::Social,
        host,
        4_800_000,
        69_000_000,
    )
}

/// kron-g500-logn21 stand-in: 2.1 M vertices / 91 M edges at full size.
/// R-MAT's repeated hub targets make this the duplicate-heaviest dataset,
/// which is where the paper reports its largest win over Gunrock (6.4×).
pub fn kron(scale: Scale) -> Dataset {
    let (s, m) = match scale {
        Scale::Test => (9, 4_000),
        Scale::Bench => (14, 650_000),
    };
    let el = rmat::generate(s, m, rmat::RmatParams::graph500(), 0x500);
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "kron",
        "kron-g500-logn21",
        DatasetKind::Synthetic,
        host,
        2_100_000,
        91_000_000,
    )
}

/// soc-twitter-2010 stand-in: 21.3 M vertices / 530 M edges at full size.
pub fn twitter(scale: Scale) -> Dataset {
    let (s, m) = match scale {
        Scale::Test => (10, 5_000),
        Scale::Bench => (15, 800_000),
    };
    let el = rmat::generate(
        s,
        m,
        rmat::RmatParams {
            a: 0.5,
            b: 0.22,
            c: 0.22,
        },
        0x772,
    );
    let host = CsrHost::from_edges(el.n, &el.edges);
    build(
        "twitter",
        "soc-twitter-2010",
        DatasetKind::Synthetic,
        host,
        21_300_000,
        530_000_000,
    )
}

/// The dataset with short key `key` (`ca`, `usa`, `hollyw`, `indo`,
/// `journal`, `kron`, `twitter`), generated at `scale`.
pub fn by_key(key: &str, scale: Scale) -> Option<Dataset> {
    Some(match key {
        "ca" => road_ca(scale),
        "usa" => road_usa(scale),
        "hollyw" => hollywood(scale),
        "indo" => indochina(scale),
        "journal" => livejournal(scale),
        "kron" => kron(scale),
        "twitter" => twitter(scale),
        _ => return None,
    })
}

/// The six datasets of the comparison figures (Figure 8 / Table 6 order:
/// CA, USA, hollyw, indo, kron, twitter).
pub fn comparison_suite(scale: Scale) -> Vec<Dataset> {
    vec![
        road_ca(scale),
        road_usa(scale),
        hollywood(scale),
        indochina(scale),
        kron(scale),
        twitter(scale),
    ]
}

/// All seven Table 3 datasets (adds LiveJournal, which appears in the
/// cross-GPU evaluation of Figure 10).
pub fn paper_suite(scale: Scale) -> Vec<Dataset> {
    let mut v = comparison_suite(scale);
    v.insert(4, livejournal(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_table3_entries() {
        let suite = paper_suite(Scale::Test);
        let keys: Vec<&str> = suite.iter().map(|d| d.key).collect();
        assert_eq!(
            keys,
            vec!["ca", "usa", "hollyw", "indo", "journal", "kron", "twitter"]
        );
        for d in &suite {
            d.host.validate().unwrap();
            assert!(d.host.edge_count() > 0);
            assert!(d.scale_ratio() < 1.0);
        }
    }

    #[test]
    fn road_vs_social_shapes() {
        let ca = road_ca(Scale::Test);
        let holly = hollywood(Scale::Test);
        assert!(ca.host.max_degree() <= 12);
        assert!(
            holly.host.max_degree() as f64 / holly.host.avg_degree()
                > ca.host.max_degree() as f64 / ca.host.avg_degree()
        );
    }

    #[test]
    fn road_graphs_are_weighted_others_not() {
        assert!(road_ca(Scale::Test).host.weights.is_some());
        assert!(road_usa(Scale::Test).host.weights.is_some());
        assert!(kron(Scale::Test).host.weights.is_none());
    }

    #[test]
    fn undirected_view_is_symmetric() {
        let d = kron(Scale::Test);
        let u = d.undirected();
        assert_eq!(u.edge_count(), 2 * d.host.edge_count());
    }

    #[test]
    fn bench_scale_is_larger() {
        let t = kron(Scale::Test);
        let b = kron(Scale::Bench);
        assert!(b.host.edge_count() > 50 * t.host.edge_count());
    }
}
