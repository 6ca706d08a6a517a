//! Random and deterministic graph generators.
//!
//! These serve two purposes in the reproduction:
//!
//! 1. **Dataset proxies**: the paper evaluates on KONECT /
//!    SNAP / NetworkRepository graphs that are not redistributable here, so
//!    `cfcc-datasets` instantiates seeded generators matched to each
//!    dataset's size, density and topology class — [`scale_free_with_edges`]
//!    for social/collaboration networks, [`geometric_with_edges`] for road
//!    networks, [`watts_strogatz`] for small-world baselines.
//! 2. **Test workloads** with known structure (paths, cycles, stars,
//!    complete graphs, grids, barbells) whose Laplacian spectra and
//!    resistances are known in closed form.

use crate::graph::{Graph, Node};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path graph `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<(Node, Node)> = (1..n as Node).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// Cycle graph on `n >= 3` nodes.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<(Node, Node)> = (1..n as Node).map(|i| (i - 1, i)).collect();
    edges.push((n as Node - 1, 0));
    Graph::from_edges(n, &edges).unwrap()
}

/// Star graph: node 0 is the hub, nodes `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let edges: Vec<(Node, Node)> = (1..n as Node).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n as Node {
        for j in (i + 1)..n as Node {
            edges.push((i, j));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// `rows × cols` grid graph (4-neighborhood).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as Node;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges).unwrap()
}

/// Barbell: two `K_c` cliques joined by a path of `p` nodes.
pub fn barbell(clique: usize, path_len: usize) -> Graph {
    assert!(clique >= 2);
    let n = 2 * clique + path_len;
    let mut edges = Vec::new();
    for i in 0..clique as Node {
        for j in (i + 1)..clique as Node {
            edges.push((i, j));
        }
    }
    let right0 = (clique + path_len) as Node;
    for i in 0..clique as Node {
        for j in (i + 1)..clique as Node {
            edges.push((right0 + i, right0 + j));
        }
    }
    // path connecting node clique-1 … right0
    let mut prev = (clique - 1) as Node;
    for p in 0..path_len as Node {
        let cur = clique as Node + p;
        edges.push((prev, cur));
        prev = cur;
    }
    edges.push((prev, right0));
    Graph::from_edges(n, &edges).unwrap()
}

/// Uniformly random recursive tree: node `i` attaches to a uniform node in
/// `0..i`. Connected by construction.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n as Node {
        let p = rng.gen_range(0..i);
        edges.push((p, i));
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_attach` existing nodes sampled proportionally to degree. Connected by
/// construction; the seed is a star on `m_attach + 1` nodes.
pub fn barabasi_albert<R: Rng>(n: usize, m_attach: usize, rng: &mut R) -> Graph {
    assert!(m_attach >= 1);
    assert!(n > m_attach);
    // `repeated` holds each node once per unit of degree: sampling an index
    // uniformly realizes preferential attachment.
    let mut repeated: Vec<Node> = Vec::with_capacity(2 * n * m_attach);
    let mut edges: Vec<(Node, Node)> = Vec::with_capacity(n * m_attach);
    let seed = m_attach + 1;
    for i in 1..seed as Node {
        edges.push((0, i));
        repeated.extend_from_slice(&[0, i]);
    }
    let mut picked = Vec::with_capacity(m_attach);
    for v in seed as Node..n as Node {
        picked.clear();
        // Sample m distinct targets (retry on collision; degree mass is
        // spread enough that this terminates fast).
        while picked.len() < m_attach {
            let t = repeated[rng.gen_range(0..repeated.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((v, t));
            repeated.push(t);
            repeated.push(v);
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Scale-free graph targeting an exact node and (approximate) edge count.
///
/// Runs preferential attachment where node `i` attaches with either
/// `⌊a⌋` or `⌈a⌉` links (`a = target_edges / (n-1)` adjusted online) so the
/// final edge count lands within a fraction of a percent of `target_edges`
/// (duplicates removed by CSR construction may shave a few edges).
pub fn scale_free_with_edges<R: Rng>(n: usize, target_edges: usize, rng: &mut R) -> Graph {
    assert!(n >= 2);
    let target = target_edges.max(n - 1);
    let mut repeated: Vec<Node> = Vec::with_capacity(4 * target / 2);
    let mut edges: Vec<(Node, Node)> = Vec::with_capacity(target);
    edges.push((0, 1));
    repeated.extend_from_slice(&[0, 1]);
    let mut picked = Vec::new();
    for v in 2..n as Node {
        let remaining_nodes = n as Node - v;
        let remaining_edges = target.saturating_sub(edges.len());
        // Average attachments still needed per remaining node.
        let a = remaining_edges as f64 / remaining_nodes as f64;
        let lo = a.floor() as usize;
        let frac = a - lo as f64;
        let mut m_v = lo + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0)));
        m_v = m_v.clamp(1, v as usize); // at most one edge to each prior node
        picked.clear();
        let mut tries = 0usize;
        while picked.len() < m_v {
            let t = repeated[rng.gen_range(0..repeated.len())];
            tries += 1;
            if !picked.contains(&t) {
                picked.push(t);
            } else if tries > 16 * m_v {
                // Fall back to uniform to escape heavy-hub collision loops.
                let t = rng.gen_range(0..v);
                if !picked.contains(&t) {
                    picked.push(t);
                }
            }
        }
        for &t in &picked {
            edges.push((v, t));
            repeated.push(t);
            repeated.push(v);
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Watts–Strogatz small-world graph: ring lattice with `k` neighbors per
/// side, each edge rewired with probability `beta`. May rarely disconnect;
/// callers wanting connectivity should extract the LCC.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k >= 1 && 2 * k < n);
    let mut edges = Vec::with_capacity(n * k);
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            let (mut a, mut b) = (u as Node, v as Node);
            if rng.gen_bool(beta) {
                // rewire endpoint b uniformly (avoid self loop)
                let mut nb = rng.gen_range(0..n as Node);
                let mut guard = 0;
                while nb == a && guard < 16 {
                    nb = rng.gen_range(0..n as Node);
                    guard += 1;
                }
                b = nb;
            }
            if a != b {
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform edges.
pub fn erdos_renyi_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "too many edges requested");
    let mut set = cfcc_util::FxHashSet::default();
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let a = rng.gen_range(0..n as Node);
        let b = rng.gen_range(0..n as Node);
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if set.insert(key) {
            edges.push(key);
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Road-network-like graph targeting `n` nodes and roughly `target_edges`
/// edges: uniform points in the unit square, connected to nearest neighbors,
/// then augmented with a random spanning path through space to guarantee
/// connectivity. High diameter, near-planar, low max degree — the Euroroads
/// topology class.
pub fn geometric_with_edges<R: Rng>(n: usize, target_edges: usize, rng: &mut R) -> Graph {
    assert!(n >= 2);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Sort nodes along a space-filling-ish sweep (x then y) and chain them:
    // guarantees connectivity with geometrically short edges.
    let mut order: Vec<Node> = (0..n as Node).collect();
    order.sort_by(|&a, &b| {
        let pa = pts[a as usize];
        let pb = pts[b as usize];
        pa.partial_cmp(&pb).unwrap()
    });
    let mut set = cfcc_util::FxHashSet::default();
    let mut edges: Vec<(Node, Node)> = Vec::with_capacity(target_edges);
    let add = |set: &mut cfcc_util::FxHashSet<(Node, Node)>,
               edges: &mut Vec<(Node, Node)>,
               a: Node,
               b: Node| {
        if a == b {
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if set.insert(key) {
            edges.push(key);
        }
    };
    for w in order.windows(2) {
        add(&mut set, &mut edges, w[0], w[1]);
    }
    // Fill remaining budget with nearest-neighbor edges over a coarse bucket
    // grid (cheap approximate kNN).
    let cells = (n as f64).sqrt().ceil() as usize;
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); cells * cells];
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        cy * cells + cx
    };
    for (i, &p) in pts.iter().enumerate() {
        buckets[cell_of(p)].push(i as Node);
    }
    let mut order2: Vec<Node> = (0..n as Node).collect();
    order2.shuffle(rng);
    'outer: for &u in order2.iter().cycle().take(4 * n) {
        if edges.len() >= target_edges {
            break 'outer;
        }
        let p = pts[u as usize];
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1) as isize;
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1) as isize;
        let mut best: Option<(f64, Node)> = None;
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || ny < 0 || nx >= cells as isize || ny >= cells as isize {
                    continue;
                }
                for &v in &buckets[ny as usize * cells + nx as usize] {
                    if v == u {
                        continue;
                    }
                    let key = if u < v { (u, v) } else { (v, u) };
                    if set.contains(&key) {
                        continue;
                    }
                    let q = pts[v as usize];
                    let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                    if best.is_none_or(|(bd, _)| d2 < bd) {
                        best = Some((d2, v));
                    }
                }
            }
        }
        if let Some((_, v)) = best {
            add(&mut set, &mut edges, u, v);
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_generator_counts() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(grid(3, 4).num_nodes(), 12);
        assert_eq!(grid(3, 4).num_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4, 2);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 6 + 6 + 3);
        assert!(g.is_connected());
        assert_eq!(crate::diameter::diameter_exact(&g), 5);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_tree(50, &mut rng);
        assert_eq!(g.num_edges(), 49);
        assert!(g.is_connected());
    }

    #[test]
    fn ba_connected_with_expected_edges() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = barabasi_albert(200, 3, &mut rng);
        assert_eq!(g.num_nodes(), 200);
        assert!(g.is_connected());
        // 3 seed-star edges + 196*3 attachments, minus none (all distinct).
        assert_eq!(g.num_edges(), 3 + 196 * 3);
    }

    #[test]
    fn scale_free_hits_edge_target() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(n, m) in &[(500usize, 2000usize), (1000, 1500), (300, 299)] {
            let g = scale_free_with_edges(n, m, &mut rng);
            assert_eq!(g.num_nodes(), n);
            assert!(g.is_connected());
            let err = (g.num_edges() as f64 - m as f64).abs() / m as f64;
            assert!(err < 0.02, "n={n} wanted {m} got {}", g.num_edges());
        }
    }

    #[test]
    fn scale_free_is_skewed() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = scale_free_with_edges(2000, 8000, &mut rng);
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "hub degree should dwarf the average"
        );
    }

    #[test]
    fn watts_strogatz_ring_no_rewire() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = watts_strogatz(20, 2, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 40);
        assert!(g.is_connected());
        assert!((0..20).all(|u| g.degree(u) == 4));
    }

    #[test]
    fn erdos_renyi_exact_edges() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = erdos_renyi_gnm(100, 300, &mut rng);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn geometric_is_connected_and_sparse() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = geometric_with_edges(1039, 1305, &mut rng);
        assert_eq!(g.num_nodes(), 1039);
        assert!(g.is_connected());
        let err = (g.num_edges() as f64 - 1305.0).abs() / 1305.0;
        assert!(err < 0.06, "got {} edges", g.num_edges());
        // Road-like: low max degree and large diameter.
        assert!(g.max_degree() <= 12);
        assert!(crate::diameter::diameter_double_sweep(&g, 0, 3) > 20);
    }
}
