//! Rooted-probability counters for the Schur complement (paper Lemma 4.2).
//!
//! For forests rooted at `S ∪ T`, `F_{ut} = Pr(ρ_u = t)` — the probability
//! that `u`'s tree is rooted at `t ∈ T` — equals `(−L_UU^{-1} L_UT)_{ut}`.
//! The counts `Ñ(ρ_u = t)` are accumulated here as one dense `n × |T|`
//! matrix of `u32`: after a few hundred forests almost every node has been
//! rooted at almost every `t` (on the hep-th proxy, 34.7 of 35 roots per
//! node after 1,024 forests), so per-node sparse lists would cost a search
//! per record and about twice the bytes.

use cfcc_graph::Node;
use std::sync::Arc;

/// Maps root nodes of `T` to compact indices `0..|T|`.
#[derive(Debug, Clone)]
pub struct RootIndex {
    /// node → index+1 (0 = not in `T`).
    map: Vec<u32>,
    nodes: Vec<Node>,
}

impl RootIndex {
    /// Build for the auxiliary root set `t_nodes` over an `n`-node graph.
    pub fn new(n: usize, t_nodes: &[Node]) -> Self {
        let mut map = vec![0u32; n];
        for (i, &t) in t_nodes.iter().enumerate() {
            assert!((t as usize) < n);
            assert_eq!(map[t as usize], 0, "duplicate root {t}");
            map[t as usize] = i as u32 + 1;
        }
        Self {
            map,
            nodes: t_nodes.to_vec(),
        }
    }

    /// Number of tracked roots `|T|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no roots are tracked.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Compact index of node `t` if it is a tracked root.
    #[inline]
    pub fn index_of(&self, t: Node) -> Option<usize> {
        let v = self.map[t as usize];
        (v != 0).then(|| (v - 1) as usize)
    }

    /// Root node at compact index `i`.
    #[inline]
    pub fn node_at(&self, i: usize) -> Node {
        self.nodes[i]
    }

    /// All tracked roots in index order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

/// Dense per-node counts of `Ñ(ρ_u = t)` for `t ∈ T`.
#[derive(Debug, Clone)]
pub struct RootedCounts {
    index: Arc<RootIndex>,
    /// Row-major `n × |T|`: `counts[u·|T| + t] = Ñ(ρ_u = t)`.
    counts: Vec<u32>,
}

impl RootedCounts {
    /// Zero counts over `n` nodes.
    pub fn new(n: usize, index: Arc<RootIndex>) -> Self {
        Self {
            counts: vec![0; n * index.len()],
            index,
        }
    }

    /// Zero counts over the same roots.
    pub fn fresh(&self) -> Self {
        Self::new(self.index.map.len(), self.index.clone())
    }

    /// The root index in use.
    pub fn index(&self) -> &RootIndex {
        &self.index
    }

    /// Stop tracking the roots in `roots`: their columns leave the counts,
    /// the other columns keep their order and counts, and later records
    /// at a dropped root are ignored, as for roots in `S`.
    pub fn untrack(&mut self, roots: &[Node]) {
        let (n, t) = (self.index.map.len(), self.index.len());
        let keep: Vec<usize> = (0..t)
            .filter(|&i| !roots.contains(&self.index.nodes[i]))
            .collect();
        let k = keep.len();
        // In-place compaction: entry (u, j) moves down from (u, keep[j]),
        // never past an entry still to be read.
        for u in 0..n {
            for (j, &i) in keep.iter().enumerate() {
                self.counts[u * k + j] = self.counts[u * t + i];
            }
        }
        self.counts.truncate(n * k);
        let nodes: Vec<Node> = keep.iter().map(|&i| self.index.nodes[i]).collect();
        self.index = Arc::new(RootIndex::new(n, &nodes));
    }

    /// Record that `u` was rooted at `root` in one sampled forest.
    /// Roots outside `T` (i.e. in `S`) are ignored.
    #[inline]
    pub fn record(&mut self, u: Node, root: Node) {
        if let Some(ti) = self.index.index_of(root) {
            self.counts[u as usize * self.index.len() + ti] += 1;
        }
    }

    /// Counts row of node `u`, indexed by compact root index.
    #[inline]
    pub fn row(&self, u: Node) -> &[u32] {
        let t = self.index.len();
        &self.counts[u as usize * t..(u as usize + 1) * t]
    }

    /// Add the counts of `other` (a sampling worker's batch, over the same
    /// roots) to these, and zero `other`'s.
    pub fn drain_from(&mut self, other: &mut RootedCounts) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&mut other.counts) {
            *a += std::mem::take(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wilson::sample_forest;
    use cfcc_graph::generators;
    use cfcc_linalg::dense::DenseMatrix;
    use cfcc_linalg::laplacian::laplacian_dense;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn root_index_lookup() {
        let idx = RootIndex::new(10, &[3, 7]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.index_of(3), Some(0));
        assert_eq!(idx.index_of(7), Some(1));
        assert_eq!(idx.index_of(0), None);
        assert_eq!(idx.node_at(1), 7);
    }

    #[test]
    fn record_and_merge() {
        let idx = Arc::new(RootIndex::new(5, &[0, 1]));
        let mut a = RootedCounts::new(5, idx.clone());
        a.record(2, 0);
        a.record(2, 0);
        a.record(2, 1);
        a.record(3, 4); // not tracked → ignored
        let mut b = RootedCounts::new(5, idx);
        b.record(2, 1);
        b.record(4, 0);
        a.drain_from(&mut b);
        assert_eq!(a.row(2), &[2, 2]);
        assert_eq!(a.row(3), &[0, 0]);
        assert_eq!(a.row(4), &[1, 0]);
        assert!(
            (0..5).all(|u| b.row(u) == [0, 0]),
            "drained counts are zero"
        );
    }

    /// Lemma 4.2: empirical rooted probabilities converge to
    /// `F = −L_UU^{-1} L_UT`.
    #[test]
    fn rooted_probabilities_match_absorbing_probabilities() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let n = g.num_nodes();
        let s = [0u32];
        let t = vec![1u32, 2u32];
        let mut in_root = vec![false; n];
        for &r in s.iter().chain(t.iter()) {
            in_root[r as usize] = true;
        }
        // Dense F: order U ascending.
        let l = laplacian_dense(&g);
        let u_nodes: Vec<u32> = (0..n as u32).filter(|&u| !in_root[u as usize]).collect();
        let k = u_nodes.len();
        let mut luu = DenseMatrix::zeros(k, k);
        let mut lut = DenseMatrix::zeros(k, t.len());
        for (i, &ui) in u_nodes.iter().enumerate() {
            for (j, &uj) in u_nodes.iter().enumerate() {
                luu.set(i, j, l.get(ui as usize, uj as usize));
            }
            for (j, &tj) in t.iter().enumerate() {
                lut.set(i, j, l.get(ui as usize, tj as usize));
            }
        }
        let luu_inv = luu.cholesky().unwrap().inverse();
        let f_exact = luu_inv.matmul(&lut); // = −F
        let idx = Arc::new(RootIndex::new(n, &t));
        let mut counts = RootedCounts::new(n, idx);
        let trials = 40_000u64;
        for _ in 0..trials {
            let f = sample_forest(&g, &in_root, &mut rng);
            let roots = f.root_of();
            for &u in &u_nodes {
                counts.record(u, roots[u as usize]);
            }
        }
        for (i, &ui) in u_nodes.iter().enumerate() {
            for (j, &c) in counts.row(ui).iter().enumerate() {
                let expect = -f_exact.get(i, j);
                let got = c as f64 / trials as f64;
                assert!(
                    (got - expect).abs() < 0.02,
                    "u={ui} t={} got {got} expect {expect}",
                    t[j]
                );
            }
        }
    }
}
