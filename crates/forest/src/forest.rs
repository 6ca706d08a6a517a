//! The sampled rooted spanning forest and its derived structures.

use cfcc_graph::traversal::NO_PARENT;
use cfcc_graph::{Graph, Node};

/// A rooted spanning forest produced by [`crate::wilson`].
///
/// Roots have `parent == NO_PARENT`. `bottomup` lists every non-root node in
/// children-before-parents order (the paper's `L_DFS`), enabling O(n)
/// subtree aggregation without materializing child lists.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    /// Parent pointer per node (`NO_PARENT` for roots).
    pub parent: Vec<Node>,
    /// Non-root nodes, children before parents.
    pub bottomup: Vec<Node>,
    /// Total random-walk steps taken while sampling (Lemma 3.7 cost).
    pub walk_steps: u64,
    /// Internal scratch for the sampler (kept to reuse its allocation).
    pub(crate) scratch_in_forest: Vec<bool>,
}

/// Euler-tour intervals over a forest: `a` is an ancestor-or-self of `u`
/// iff `tin[a] <= tin[u] < tout[a]`.
#[derive(Debug, Clone, Default)]
pub struct EulerTour {
    /// Entry times.
    pub tin: Vec<u32>,
    /// Exit times (exclusive): `tout[u] - tin[u]` is the size of `u`'s subtree.
    pub tout: Vec<u32>,
}

impl EulerTour {
    /// Ancestor-or-self test in O(1).
    #[inline]
    pub fn is_ancestor_or_self(&self, a: Node, u: Node) -> bool {
        self.tin[a as usize] <= self.tin[u as usize] && self.tin[u as usize] < self.tout[a as usize]
    }

    /// Number of nodes in `u`'s subtree (`u` included).
    #[inline]
    pub fn subtree_size(&self, u: Node) -> u32 {
        self.tout[u as usize] - self.tin[u as usize]
    }
}

impl Forest {
    /// Number of nodes (root + non-root).
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Whether `u` is a root of this forest.
    #[inline]
    pub fn is_root(&self, u: Node) -> bool {
        self.parent[u as usize] == NO_PARENT
    }

    /// Iterate nodes top-down (parents before children; roots excluded).
    pub fn topdown(&self) -> impl Iterator<Item = Node> + '_ {
        self.bottomup.iter().rev().copied()
    }

    /// Root of every node's tree (roots map to themselves).
    pub fn root_of(&self) -> Vec<Node> {
        let n = self.num_nodes();
        let mut root = vec![NO_PARENT; n];
        for u in 0..n as Node {
            if self.is_root(u) {
                root[u as usize] = u;
            }
        }
        for x in self.topdown() {
            let p = self.parent[x as usize];
            root[x as usize] = root[p as usize];
        }
        root
    }

    /// Depth of every node in its tree (roots at 0).
    pub fn depths(&self) -> Vec<u32> {
        let n = self.num_nodes();
        let mut depth = vec![0u32; n];
        for x in self.topdown() {
            let p = self.parent[x as usize];
            depth[x as usize] = depth[p as usize] + 1;
        }
        depth
    }

    /// Compute pre-order intervals into `tour` (reusing its buffers) in two
    /// linear passes: subtree sizes bottom-up, then, top-down, each child
    /// takes the next free entry time inside its parent's interval. The
    /// child order is whatever `bottomup` implies; ancestor tests do not
    /// depend on it.
    pub fn euler_tour_into(&self, tour: &mut EulerTour) {
        let n = self.num_nodes();
        let (tin, tout) = (&mut tour.tin, &mut tour.tout);
        tin.clear();
        tin.resize(n, 0);
        // `tout` holds subtree sizes until a node's entry time is set, and
        // the parent's next free entry time afterwards; once every child
        // has taken its slot that cursor is the exit time.
        tout.clear();
        tout.resize(n, 1);
        for &x in &self.bottomup {
            tout[self.parent[x as usize] as usize] += tout[x as usize];
        }
        let mut time = 0u32;
        for r in 0..n {
            if self.parent[r] == NO_PARENT {
                let size = tout[r];
                tin[r] = time;
                tout[r] = time + 1;
                time += size;
            }
        }
        debug_assert_eq!(time as usize, n);
        for x in self.topdown() {
            let (x, p) = (x as usize, self.parent[x as usize] as usize);
            let (size, t) = (tout[x], tout[p]);
            tin[x] = t;
            tout[p] = t + size;
            tout[x] = t + 1;
        }
    }

    /// Allocate-and-return Euler tour (tests / cold paths).
    pub fn euler_tour(&self) -> EulerTour {
        let mut tour = EulerTour::default();
        self.euler_tour_into(&mut tour);
        tour
    }

    /// Panic unless this is a valid spanning forest of `g` rooted exactly at
    /// the `in_root` set (test support).
    pub fn validate(&self, g: &Graph, in_root: &[bool]) {
        let n = g.num_nodes();
        assert_eq!(self.parent.len(), n);
        let non_roots = in_root.iter().filter(|&&r| !r).count();
        assert_eq!(
            self.bottomup.len(),
            non_roots,
            "bottom-up covers all non-roots"
        );
        let mut seen = vec![false; n];
        for &x in &self.bottomup {
            assert!(!in_root[x as usize], "root in bottom-up order");
            assert!(!seen[x as usize], "duplicate in bottom-up order");
            seen[x as usize] = true;
            let p = self.parent[x as usize];
            assert_ne!(p, NO_PARENT, "non-root without parent");
            assert!(g.has_edge(x, p), "parent edge ({x},{p}) not in graph");
        }
        for u in 0..n as Node {
            if in_root[u as usize] {
                assert!(self.is_root(u), "root {u} has a parent");
            }
        }
        // Acyclic and rooted: walking up from any node terminates at a root
        // within n steps.
        for u in 0..n as Node {
            let mut i = u;
            let mut hops = 0;
            while !self.is_root(i) {
                i = self.parent[i as usize];
                hops += 1;
                assert!(hops <= n, "cycle detected from {u}");
            }
            assert!(in_root[i as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wilson::sample_forest;
    use cfcc_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixed_forest() -> Forest {
        // Tree: 0 is root; children 1,2; 1's children 3,4.
        // bottomup: leaves first.
        Forest {
            parent: vec![NO_PARENT, 0, 0, 1, 1],
            bottomup: vec![3, 4, 1, 2],
            walk_steps: 0,
            scratch_in_forest: Vec::new(),
        }
    }

    #[test]
    fn root_of_and_depths() {
        let f = fixed_forest();
        assert_eq!(f.root_of(), vec![0, 0, 0, 0, 0]);
        assert_eq!(f.depths(), vec![0, 1, 1, 2, 2]);
        assert!(f.is_root(0));
        assert!(!f.is_root(3));
    }

    #[test]
    fn euler_ancestor_checks() {
        let f = fixed_forest();
        let t = f.euler_tour();
        assert!(t.is_ancestor_or_self(0, 3));
        assert!(t.is_ancestor_or_self(1, 3));
        assert!(t.is_ancestor_or_self(3, 3));
        assert!(!t.is_ancestor_or_self(2, 3));
        assert!(!t.is_ancestor_or_self(3, 1));
        assert!(!t.is_ancestor_or_self(1, 2));
    }

    #[test]
    fn euler_on_multi_tree_forest() {
        // Roots 0 and 3; 1,2 under 0; 4 under 3.
        let f = Forest {
            parent: vec![NO_PARENT, 0, 1, NO_PARENT, 3],
            bottomup: vec![2, 1, 4],
            walk_steps: 0,
            scratch_in_forest: Vec::new(),
        };
        let t = f.euler_tour();
        assert!(t.is_ancestor_or_self(0, 2));
        assert!(!t.is_ancestor_or_self(0, 4));
        assert!(t.is_ancestor_or_self(3, 4));
        assert!(!t.is_ancestor_or_self(3, 1));
    }

    #[test]
    fn euler_matches_naive_on_random_forests() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        // One root, two roots, and a larger multi-root set (many trees).
        for roots in [&[0u32][..], &[0, 20], &[3, 9, 17, 28, 41, 55]] {
            let mut in_root = vec![false; 60];
            for &r in roots {
                in_root[r as usize] = true;
            }
            for _ in 0..5 {
                let f = sample_forest(&g, &in_root, &mut rng);
                let t = f.euler_tour();
                // naive ancestor check by walking up
                for u in 0..60u32 {
                    let mut anc = [false; 60];
                    let mut size = 0;
                    let mut i = u;
                    loop {
                        anc[i as usize] = true;
                        if f.is_root(i) {
                            break;
                        }
                        i = f.parent[i as usize];
                    }
                    for a in 0..60u32 {
                        assert_eq!(t.is_ancestor_or_self(a, u), anc[a as usize], "a={a} u={u}");
                        let mut j = a;
                        while j != u && !f.is_root(j) {
                            j = f.parent[j as usize];
                        }
                        size += u32::from(j == u);
                    }
                    assert_eq!(t.subtree_size(u), size, "subtree of {u}");
                }
            }
        }
    }

    #[test]
    fn depths_bounded_by_tree_size() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::cycle(30);
        let mut in_root = vec![false; 30];
        in_root[7] = true;
        let f = sample_forest(&g, &in_root, &mut rng);
        let d = f.depths();
        assert!(d.iter().all(|&x| (x as usize) < 30));
        assert_eq!(d[7], 0);
    }
}
