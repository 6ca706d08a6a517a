//! Tuning parameters shared by all CFCM solvers, plus the auxiliary
//! root-set sizing rule `|T*|` of SchurCFCM (paper §V-A).

use cfcc_graph::{Graph, Node};
use cfcc_linalg::jl;
use cfcc_linalg::sdd::SddBackend;

/// Parameters for the Monte-Carlo CFCM solvers.
///
/// Defaults follow the paper's experimental setup (`ε = 0.2`) with
/// practical constants: sketch widths of `O(log n)` and a bounded forest
/// budget (`max_forests`), which the forest phases' exact decision
/// (`crate::adaptive`) usually undercuts. The paper's worst-case sample sizes (Lemmas 3.9 and 4.5)
/// are astronomically conservative and not implemented.
#[derive(Debug, Clone)]
pub struct CfcmParams {
    /// Error parameter `ε ∈ (0, 1)` of the approximation guarantee.
    pub epsilon: f64,
    /// Master RNG seed — all sampling is deterministic given this.
    pub seed: u64,
    /// Worker threads for forest sampling *and* the blocked dense kernels
    /// (1 = serial; selections are thread-count independent, and the
    /// dense kernels are bit-identical across thread counts).
    pub threads: usize,
    /// Override the JL sketch width (`None` = practical width from ε, n).
    pub jl_width: Option<usize>,
    /// First batch size of the doubling schedule.
    pub min_batch: u64,
    /// Practical ceiling on the forests behind one greedy iteration's
    /// estimates. SchurCFCM rounds that share a root set `S ∪ T` share one
    /// pool of forests, and the ceiling bounds the pool.
    pub max_forests: u64,
    /// Relative tolerance of the CG Laplacian solves (ApproxGreedy, CFCC
    /// evaluation).
    pub cg_tol: f64,
    /// SDD solver backend for grounded Laplacian systems (`auto` picks
    /// dense Cholesky up to 1536 unknowns and the CSR/IC(0) `sparse-cg`
    /// solver above; see `cfcc_linalg::sdd`).
    pub backend: SddBackend,
    /// Size `c` of SchurCFCM's auxiliary root set `T` (`None` = `|T*|`).
    pub schur_c: Option<usize>,
    /// Warm-start the greedy iterations' sketched solves from the
    /// previous iteration's solutions (the systems differ by one grounded
    /// node; see `cfcc_core::engine`). On by default — turning it off
    /// forces every round to cold-start, which only warm-vs-cold
    /// comparisons want (`tests/engine.rs` runs one).
    pub warm_start: bool,
}

impl Default for CfcmParams {
    fn default() -> Self {
        Self {
            epsilon: 0.2,
            seed: 0x5EED,
            threads: 1,
            jl_width: None,
            min_batch: 64,
            max_forests: 4096,
            cg_tol: 1e-6,
            backend: SddBackend::Auto,
            schur_c: None,
            warm_start: true,
        }
    }
}

impl CfcmParams {
    /// Defaults with the given `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style thread count override.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style SDD backend override.
    pub fn backend(mut self, backend: SddBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style warm-start override (off = cold-start every greedy
    /// iteration's solves).
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Effective JL width for an `n`-node problem.
    pub fn width(&self, n: usize) -> usize {
        match self.jl_width {
            Some(w) => w.max(1),
            None => jl::practical_width(n, self.epsilon),
        }
    }

    /// Effective forest cap for one greedy iteration's estimates: the
    /// forests one phase samples, or SchurDelta's pool for one root set
    /// `S ∪ T`, which the rounds sharing that root set fill together.
    pub fn forest_cap(&self) -> u64 {
        self.max_forests.max(self.min_batch)
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), crate::CfcmError> {
        if !(0.0 < self.epsilon && self.epsilon < 1.0) {
            return Err(crate::CfcmError::InvalidParameter(format!(
                "epsilon must be in (0,1), got {}",
                self.epsilon
            )));
        }
        if self.min_batch == 0 {
            return Err(crate::CfcmError::InvalidParameter(
                "min_batch must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// The paper's auxiliary root-set sizing rule: the balance point
/// `|T*| = argmin_{|T|} {| |T| − d_max(T) |}` between the cost of inverting
/// the `|T| × |T|` Schur complement (grows with `|T|`) and the sampling
/// bound driven by `d_max(T)` (shrinks with `|T|`). Implemented as the
/// smallest `c` with `c ≥ d_max` after removing the top-`c` hubs.
pub fn t_star(g: &Graph) -> usize {
    let n = g.num_nodes();
    if n <= 2 {
        return 1;
    }
    let by_degree = g.nodes_by_degree_desc();
    // Residual degrees after removing hubs one at a time, tracked with a
    // bucket count per degree value so the residual maximum updates in
    // O(1) amortized per removal (degrees only decrease, so the max
    // pointer only ever moves down): O(n + m) total instead of the O(n)
    // full rescan per removal (O(n²)) this used to do.
    let mut residual: Vec<usize> = (0..n as Node).map(|u| g.degree(u)).collect();
    let max_degree = residual.iter().copied().max().unwrap_or(0);
    let mut bucket = vec![0usize; max_degree + 1];
    for &d in &residual {
        bucket[d] += 1;
    }
    let mut dmax = max_degree;
    let mut removed = vec![false; n];
    for (c, &hub) in by_degree.iter().enumerate() {
        removed[hub as usize] = true;
        bucket[residual[hub as usize]] -= 1;
        for &v in g.neighbors(hub) {
            let v = v as usize;
            if !removed[v] {
                bucket[residual[v]] -= 1;
                residual[v] -= 1;
                bucket[residual[v]] += 1;
            }
        }
        while dmax > 0 && bucket[dmax] == 0 {
            dmax -= 1;
        }
        let size = c + 1;
        if size >= dmax {
            return size.max(1);
        }
    }
    n - 1
}

/// The top-`c` degree nodes (SchurCFCM's `T`, Line 1 of Algorithm 5).
pub fn top_degree_nodes(g: &Graph, c: usize) -> Vec<Node> {
    let mut nodes = g.nodes_by_degree_desc();
    nodes.truncate(c);
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfcc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_validate() {
        assert!(CfcmParams::default().validate().is_ok());
        assert!(CfcmParams::with_epsilon(1.5).validate().is_err());
        assert!(CfcmParams::with_epsilon(0.0).validate().is_err());
        let p = CfcmParams {
            min_batch: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn width_respects_override_and_mode() {
        let mut p = CfcmParams::default();
        assert!(p.width(10_000) >= 8);
        p.jl_width = Some(4);
        assert_eq!(p.width(10_000), 4);
    }

    #[test]
    fn forest_cap_is_max_forests_by_default() {
        let p = CfcmParams::default();
        assert_eq!(p.forest_cap(), 4096);
    }

    #[test]
    fn t_star_on_star_graph() {
        // Star: removing the hub leaves isolated leaves (d_max = 0), so
        // c = 1 already satisfies c >= d_max.
        let g = generators::star(50);
        assert_eq!(t_star(&g), 1);
    }

    #[test]
    fn t_star_balances_on_scale_free() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::scale_free_with_edges(2000, 8000, &mut rng);
        let c = t_star(&g);
        assert!((1..2000).contains(&c));
        // At the balance point, c is at least the residual max degree.
        let t = top_degree_nodes(&g, c);
        let mut in_t = vec![false; 2000];
        for &h in &t {
            in_t[h as usize] = true;
        }
        assert!(c >= g.max_degree_excluding(&in_t));
    }

    /// The pre-optimization reference: full residual-degree rescan per
    /// removed hub (O(n²)). Kept as the oracle for the incremental version.
    fn t_star_naive(g: &Graph) -> usize {
        let n = g.num_nodes();
        if n <= 2 {
            return 1;
        }
        let by_degree = g.nodes_by_degree_desc();
        let mut residual: Vec<i64> = (0..n as Node).map(|u| g.degree(u) as i64).collect();
        let mut removed = vec![false; n];
        for (c, &hub) in by_degree.iter().enumerate() {
            removed[hub as usize] = true;
            for &v in g.neighbors(hub) {
                residual[v as usize] -= 1;
            }
            let dmax = (0..n)
                .filter(|&u| !removed[u])
                .map(|u| residual[u])
                .max()
                .unwrap_or(0);
            let size = c + 1;
            if size as i64 >= dmax {
                return size.max(1);
            }
        }
        n - 1
    }

    #[test]
    fn incremental_t_star_matches_naive_scan() {
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..12u64 {
            let g = match trial % 4 {
                0 => generators::barabasi_albert(150 + 17 * trial as usize, 3, &mut rng),
                1 => generators::scale_free_with_edges(400, 1600, &mut rng),
                2 => generators::erdos_renyi_gnm(200, 800, &mut rng),
                _ => generators::geometric_with_edges(300, 900, &mut rng),
            };
            assert_eq!(t_star(&g), t_star_naive(&g), "trial {trial}");
        }
        // Structured corner cases.
        for g in [
            generators::star(50),
            generators::cycle(40),
            generators::complete(12),
        ] {
            assert_eq!(t_star(&g), t_star_naive(&g));
        }
    }

    #[test]
    fn top_degree_nodes_sorted() {
        let g = generators::star(10);
        let t = top_degree_nodes(&g, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], 0); // the hub
    }

    #[test]
    fn builder_methods() {
        let p = CfcmParams::default().seed(9).threads(0);
        assert_eq!(p.seed, 9);
        assert_eq!(p.threads, 1);
    }
}
