//! Registry of the paper's evaluation datasets with seeded proxy
//! generation.
//!
//! Each entry records the paper-reported LCC statistics (`n`, `m`, `τ`,
//! `|T*|` where given in Table II) and the topology class used to generate
//! the proxy. Proxies can be generated at reduced `scale` so that every
//! experiment has a ladder that fits a small machine; the recorded paper
//! numbers let harnesses print side-by-side rows.

use crate::{karate, usa};
use cfcc_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Topology class a proxy is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Embedded real edge list (Karate, Contiguous-USA).
    Real,
    /// Preferential-attachment scale-free (social / collaboration / web).
    ScaleFree,
    /// Geometric, near-planar, high diameter (road networks, co-purchase).
    Road,
}

/// One dataset entry.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Lower-case dataset name as used in the paper's tables.
    pub name: &'static str,
    /// Paper-reported LCC node count.
    pub paper_nodes: usize,
    /// Paper-reported LCC edge count.
    pub paper_edges: usize,
    /// Paper-reported diameter (0 = not reported).
    pub paper_tau: u32,
    /// Paper-reported `|T*|` (0 = not reported; tiny graphs).
    pub paper_t_star: usize,
    /// Topology class for proxy generation.
    pub topology: Topology,
    /// Fixed generation seed.
    pub seed: u64,
}

/// All datasets from the paper (Fig. 1 tiny graphs + Table II).
pub const SPECS: [DatasetSpec; 31] = [
    // --- tiny (Fig. 1) ---
    DatasetSpec {
        name: "zebra",
        paper_nodes: 23,
        paper_edges: 105,
        paper_tau: 0,
        paper_t_star: 0,
        topology: Topology::ScaleFree,
        seed: 9001,
    },
    DatasetSpec {
        name: "karate",
        paper_nodes: 34,
        paper_edges: 78,
        paper_tau: 5,
        paper_t_star: 0,
        topology: Topology::Real,
        seed: 0,
    },
    DatasetSpec {
        name: "contiguous-usa",
        paper_nodes: 49,
        paper_edges: 107,
        paper_tau: 11,
        paper_t_star: 0,
        topology: Topology::Real,
        seed: 0,
    },
    DatasetSpec {
        name: "dolphins",
        paper_nodes: 62,
        paper_edges: 159,
        paper_tau: 8,
        paper_t_star: 0,
        topology: Topology::ScaleFree,
        seed: 9002,
    },
    // --- Table II ---
    DatasetSpec {
        name: "euroroads",
        paper_nodes: 1039,
        paper_edges: 1305,
        paper_tau: 62,
        paper_t_star: 7,
        topology: Topology::Road,
        seed: 9101,
    },
    DatasetSpec {
        name: "hamsterster",
        paper_nodes: 2000,
        paper_edges: 16097,
        paper_tau: 10,
        paper_t_star: 58,
        topology: Topology::ScaleFree,
        seed: 9102,
    },
    DatasetSpec {
        name: "facebook",
        paper_nodes: 4039,
        paper_edges: 88234,
        paper_tau: 8,
        paper_t_star: 127,
        topology: Topology::ScaleFree,
        seed: 9103,
    },
    DatasetSpec {
        name: "gr-qc",
        paper_nodes: 4158,
        paper_edges: 13428,
        paper_tau: 17,
        paper_t_star: 34,
        topology: Topology::ScaleFree,
        seed: 9104,
    },
    DatasetSpec {
        name: "web-epa",
        paper_nodes: 4253,
        paper_edges: 8897,
        paper_tau: 10,
        paper_t_star: 43,
        topology: Topology::ScaleFree,
        seed: 9105,
    },
    DatasetSpec {
        name: "routeviews",
        paper_nodes: 6474,
        paper_edges: 13895,
        paper_tau: 9,
        paper_t_star: 45,
        topology: Topology::ScaleFree,
        seed: 9106,
    },
    DatasetSpec {
        name: "soc-pagesgov",
        paper_nodes: 7057,
        paper_edges: 89429,
        paper_tau: 10,
        paper_t_star: 113,
        topology: Topology::ScaleFree,
        seed: 9107,
    },
    DatasetSpec {
        name: "hep-th",
        paper_nodes: 8638,
        paper_edges: 24827,
        paper_tau: 18,
        paper_t_star: 37,
        topology: Topology::ScaleFree,
        seed: 9108,
    },
    DatasetSpec {
        name: "astro-ph",
        paper_nodes: 17903,
        paper_edges: 197031,
        paper_tau: 14,
        paper_t_star: 138,
        topology: Topology::ScaleFree,
        seed: 9109,
    },
    DatasetSpec {
        name: "caida",
        paper_nodes: 26475,
        paper_edges: 53381,
        paper_tau: 17,
        paper_t_star: 86,
        topology: Topology::ScaleFree,
        seed: 9110,
    },
    DatasetSpec {
        name: "email-enron",
        paper_nodes: 33696,
        paper_edges: 180811,
        paper_tau: 13,
        paper_t_star: 177,
        topology: Topology::ScaleFree,
        seed: 9111,
    },
    DatasetSpec {
        name: "brightkite",
        paper_nodes: 56739,
        paper_edges: 212945,
        paper_tau: 18,
        paper_t_star: 146,
        topology: Topology::ScaleFree,
        seed: 9112,
    },
    DatasetSpec {
        name: "buzznet",
        paper_nodes: 101163,
        paper_edges: 2763066,
        paper_tau: 4,
        paper_t_star: 664,
        topology: Topology::ScaleFree,
        seed: 9113,
    },
    DatasetSpec {
        name: "livemocha",
        paper_nodes: 104103,
        paper_edges: 2193083,
        paper_tau: 6,
        paper_t_star: 631,
        topology: Topology::ScaleFree,
        seed: 9114,
    },
    DatasetSpec {
        name: "wordnet",
        paper_nodes: 145145,
        paper_edges: 656230,
        paper_tau: 16,
        paper_t_star: 205,
        topology: Topology::ScaleFree,
        seed: 9115,
    },
    DatasetSpec {
        name: "gowalla",
        paper_nodes: 196591,
        paper_edges: 950327,
        paper_tau: 16,
        paper_t_star: 258,
        topology: Topology::ScaleFree,
        seed: 9116,
    },
    DatasetSpec {
        name: "com-dblp",
        paper_nodes: 317080,
        paper_edges: 1049866,
        paper_tau: 23,
        paper_t_star: 131,
        topology: Topology::ScaleFree,
        seed: 9117,
    },
    DatasetSpec {
        name: "amazon",
        paper_nodes: 334863,
        paper_edges: 925872,
        paper_tau: 47,
        paper_t_star: 96,
        topology: Topology::Road,
        seed: 9118,
    },
    DatasetSpec {
        name: "actor",
        paper_nodes: 374511,
        paper_edges: 15014839,
        paper_tau: 13,
        paper_t_star: 1174,
        topology: Topology::ScaleFree,
        seed: 9119,
    },
    DatasetSpec {
        name: "dogster",
        paper_nodes: 426485,
        paper_edges: 8543321,
        paper_tau: 11,
        paper_t_star: 1174,
        topology: Topology::ScaleFree,
        seed: 9120,
    },
    DatasetSpec {
        name: "foursquare",
        paper_nodes: 639014,
        paper_edges: 3214986,
        paper_tau: 4,
        paper_t_star: 201,
        topology: Topology::ScaleFree,
        seed: 9121,
    },
    DatasetSpec {
        name: "skitter",
        paper_nodes: 1694616,
        paper_edges: 11094209,
        paper_tau: 31,
        paper_t_star: 965,
        topology: Topology::ScaleFree,
        seed: 9122,
    },
    DatasetSpec {
        name: "flixster",
        paper_nodes: 2523386,
        paper_edges: 7918801,
        paper_tau: 7,
        paper_t_star: 945,
        topology: Topology::ScaleFree,
        seed: 9123,
    },
    DatasetSpec {
        name: "orkut",
        paper_nodes: 2997166,
        paper_edges: 106349209,
        paper_tau: 9,
        paper_t_star: 1462,
        topology: Topology::ScaleFree,
        seed: 9124,
    },
    DatasetSpec {
        name: "youtube",
        paper_nodes: 3216075,
        paper_edges: 9369874,
        paper_tau: 31,
        paper_t_star: 892,
        topology: Topology::ScaleFree,
        seed: 9125,
    },
    DatasetSpec {
        name: "soc-livejournal",
        paper_nodes: 5189808,
        paper_edges: 48687945,
        paper_tau: 23,
        paper_t_star: 951,
        topology: Topology::ScaleFree,
        seed: 9126,
    },
    DatasetSpec {
        name: "sc-rel9",
        paper_nodes: 5921786,
        paper_edges: 23667162,
        paper_tau: 7,
        paper_t_star: 125,
        topology: Topology::ScaleFree,
        seed: 9127,
    },
];

/// All dataset specs.
pub fn all_specs() -> &'static [DatasetSpec] {
    &SPECS
}

/// Look up a spec by name.
pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Generate the dataset at `scale` (1.0 = paper size; smaller values keep
/// density but shrink node/edge counts proportionally). Real datasets
/// ignore `scale`.
pub fn generate(spec: &DatasetSpec, scale: f64) -> Graph {
    match spec.topology {
        Topology::Real => match spec.name {
            "karate" => karate(),
            "contiguous-usa" => usa::contiguous_usa(),
            other => unreachable!("unknown real dataset {other}"),
        },
        Topology::ScaleFree => {
            let (n, m) = scaled(spec, scale);
            let mut rng = StdRng::seed_from_u64(spec.seed);
            generators::scale_free_with_edges(n, m, &mut rng)
        }
        Topology::Road => {
            let (n, m) = scaled(spec, scale);
            let mut rng = StdRng::seed_from_u64(spec.seed);
            generators::geometric_with_edges(n, m, &mut rng)
        }
    }
}

fn scaled(spec: &DatasetSpec, scale: f64) -> (usize, usize) {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    let n = ((spec.paper_nodes as f64 * scale).round() as usize).max(16);
    let m = ((spec.paper_edges as f64 * scale).round() as usize).max(n - 1);
    (n, m)
}

/// Generate a dataset by name at the given scale.
pub fn by_name(name: &str, scale: f64) -> Option<Graph> {
    spec(name).map(|s| generate(s, scale))
}

/// Named suites matching the paper's experiment groupings.
pub mod suites {
    /// Fig. 1 tiny graphs (optimum comparison).
    pub const TINY: [&str; 4] = ["zebra", "karate", "contiguous-usa", "dolphins"];
    /// Fig. 2 small graphs.
    pub const FIG2: [&str; 6] = [
        "hamsterster",
        "web-epa",
        "routeviews",
        "soc-pagesgov",
        "astro-ph",
        "email-enron",
    ];
    /// Fig. 3 large graphs.
    pub const FIG3: [&str; 4] = ["livemocha", "wordnet", "gowalla", "com-dblp"];
    /// Fig. 4 runtime-vs-ε graphs.
    pub const FIG4: [&str; 6] = [
        "euroroads",
        "soc-pagesgov",
        "email-enron",
        "com-dblp",
        "skitter",
        "sc-rel9",
    ];
    /// Fig. 5 accuracy-vs-ε graphs.
    pub const FIG5: [&str; 6] = [
        "facebook",
        "gr-qc",
        "web-epa",
        "routeviews",
        "hep-th",
        "caida",
    ];
    /// Table II small tier (feasible at full scale on a laptop).
    pub const TABLE2_SMALL: [&str; 8] = [
        "euroroads",
        "hamsterster",
        "facebook",
        "gr-qc",
        "web-epa",
        "routeviews",
        "soc-pagesgov",
        "hep-th",
    ];
    /// Table II medium tier.
    pub const TABLE2_MEDIUM: [&str; 3] = ["astro-ph", "caida", "email-enron"];
    /// Table II large tier (scaled by preset).
    pub const TABLE2_LARGE: [&str; 5] =
        ["brightkite", "buzznet", "livemocha", "wordnet", "gowalla"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(SPECS.len(), 31);
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31, "duplicate dataset names");
        for suite in [
            suites::TINY.as_slice(),
            suites::FIG2.as_slice(),
            suites::FIG3.as_slice(),
            suites::FIG4.as_slice(),
            suites::FIG5.as_slice(),
            suites::TABLE2_SMALL.as_slice(),
            suites::TABLE2_MEDIUM.as_slice(),
            suites::TABLE2_LARGE.as_slice(),
        ] {
            for name in suite {
                assert!(
                    spec(name).is_some(),
                    "suite references unknown dataset {name}"
                );
            }
        }
    }

    #[test]
    fn real_datasets_exact() {
        let k = by_name("karate", 1.0).unwrap();
        assert_eq!((k.num_nodes(), k.num_edges()), (34, 78));
        let u = by_name("contiguous-usa", 0.5).unwrap(); // scale ignored
        assert_eq!((u.num_nodes(), u.num_edges()), (49, 107));
    }

    #[test]
    fn proxies_match_paper_sizes_at_full_scale() {
        for name in ["zebra", "dolphins", "euroroads", "hamsterster"] {
            let s = spec(name).unwrap();
            let g = generate(s, 1.0);
            assert_eq!(g.num_nodes(), s.paper_nodes, "{name} nodes");
            let err = (g.num_edges() as f64 - s.paper_edges as f64).abs() / s.paper_edges as f64;
            assert!(
                err < 0.06,
                "{name}: edges {} vs paper {}",
                g.num_edges(),
                s.paper_edges
            );
            assert!(g.is_connected(), "{name} must be connected");
        }
    }

    #[test]
    fn proxies_are_deterministic() {
        let a = by_name("gr-qc", 0.25).unwrap();
        let b = by_name("gr-qc", 0.25).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let s = spec("web-epa").unwrap();
        let g = generate(s, 0.25);
        let expect_n = (s.paper_nodes as f64 * 0.25).round() as usize;
        assert_eq!(g.num_nodes(), expect_n);
        let density_full = s.paper_edges as f64 / s.paper_nodes as f64;
        let density_scaled = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!((density_scaled - density_full).abs() / density_full < 0.1);
    }

    #[test]
    fn road_proxy_has_high_diameter() {
        let g = by_name("euroroads", 1.0).unwrap();
        let d = cfcc_graph::diameter::diameter_double_sweep(&g, 0, 3);
        assert!(d > 20, "road proxy diameter {d} too small");
        // Scale-free proxy of similar size is far more compact.
        let h = by_name("hamsterster", 1.0).unwrap();
        let dh = cfcc_graph::diameter::diameter_double_sweep(&h, 0, 3);
        assert!(dh < d);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("nope", 1.0).is_none());
        assert!(spec("nope").is_none());
    }
}
