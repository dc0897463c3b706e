//! PTS plans: the output of a pre-trajectory sampling algorithm, and the
//! prefix tree ([`PtsPlanTree`]) that batched execution uses to share
//! state preparation across trajectories with common Kraus prefixes.

use ptsbe_circuit::NoisyCircuit;
use std::ops::Range;

/// One planned trajectory: a branch assignment plus its shot budget
/// (`m_α` in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTrajectory {
    /// `choices[site_id]` = Kraus branch index.
    pub choices: Vec<usize>,
    /// Number of shots to collect from this trajectory's prepared state.
    pub shots: usize,
}

/// The full pre-sampled plan handed to Batched Execution (the
/// `KrausSets, KrausShots` pair returned by the paper's Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct PtsPlan {
    /// Planned trajectories in sampling order.
    pub trajectories: Vec<PlannedTrajectory>,
}

impl PtsPlan {
    /// Number of distinct planned trajectories.
    pub fn n_trajectories(&self) -> usize {
        self.trajectories.len()
    }

    /// Total shot budget across trajectories.
    pub fn total_shots(&self) -> usize {
        self.trajectories.iter().map(|t| t.shots).sum()
    }

    /// Sum of nominal probabilities of the planned trajectories — the
    /// probability mass the plan covers (1.0 = exhaustive; exact physical
    /// coverage for unitary-mixture circuits).
    pub fn coverage(&self, nc: &NoisyCircuit) -> f64 {
        self.trajectories
            .iter()
            .map(|t| nc.assignment_probability(&t.choices))
            .sum()
    }

    /// Largest per-trajectory error count in the plan.
    pub fn max_error_weight(&self, nc: &NoisyCircuit) -> usize {
        self.trajectories
            .iter()
            .map(|t| crate::assignment::error_events(nc, &t.choices).len())
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Trajectory prefix tree

/// One node of a [`PtsPlanTree`].
///
/// A node at depth `d` represents a partial assignment fixing the Kraus
/// branches of sites `0..d`. Leaves (depth = site count) carry the plan
/// indices of the trajectories that end there — more than one when the
/// plan contains duplicate assignments (`dedup: false` samplers).
#[derive(Debug, Clone)]
pub struct PtsTreeNode {
    /// Number of noise sites fixed on the path to this node.
    pub depth: usize,
    /// Children as `(branch, node index)`, ordered by branch.
    pub children: Vec<(usize, usize)>,
    /// Plan indices of trajectories whose full assignment ends here.
    pub leaves: Vec<usize>,
    /// A plan index of some trajectory descending through this node; its
    /// `choices[..depth]` is the node's partial assignment (all
    /// descendants share it), which lets executors borrow an assignment
    /// prefix without materializing one per node.
    pub rep: usize,
    /// Positions of the leaves under this node in depth-first leaf order
    /// (the order [`PtsPlanTree::leaf_plan_indices`] returns). The tree
    /// is built in sorted-assignment order, so every subtree's leaves
    /// form one contiguous run, and a leaf node's `leaves[i]` sits at
    /// position `span.start + i`.
    pub span: Range<usize>,
}

/// A prefix tree over a plan's trajectories.
///
/// Trajectories that agree on their first `d` Kraus branches share a
/// single path of `d` edges, so an executor walking the tree performs one
/// segment-advance per *edge* instead of one full state preparation per
/// *trajectory*: `O(edges)` site applications instead of
/// `O(trajectories × sites)`. Low-noise plans are dominated by
/// trajectories that differ only in one or two late branches, which is
/// where the sharing (reported by [`PtsPlanTree::prep_ops_saved`]) comes
/// from.
#[derive(Debug, Clone)]
pub struct PtsPlanTree {
    nodes: Vec<PtsTreeNode>,
    n_sites: usize,
    n_trajectories: usize,
}

impl PtsPlanTree {
    /// Build the prefix tree of a plan.
    ///
    /// Trajectories are inserted in sorted-assignment order (ties broken
    /// by plan index), which makes construction a single linear walk per
    /// trajectory with no child-search backtracking.
    ///
    /// # Panics
    /// Panics when trajectories disagree on assignment length (a plan
    /// always targets one circuit, so all assignments cover its full site
    /// list).
    pub fn from_plan(plan: &PtsPlan) -> Self {
        let n_sites = plan.trajectories.first().map_or(0, |t| t.choices.len());
        assert!(
            plan.trajectories.iter().all(|t| t.choices.len() == n_sites),
            "all planned trajectories must assign the same site count"
        );
        let mut order: Vec<usize> = (0..plan.trajectories.len()).collect();
        order.sort_by(|&a, &b| {
            plan.trajectories[a]
                .choices
                .cmp(&plan.trajectories[b].choices)
                .then(a.cmp(&b))
        });

        let mut nodes = vec![PtsTreeNode {
            depth: 0,
            children: Vec::new(),
            leaves: Vec::new(),
            rep: order.first().copied().unwrap_or(0),
            span: 0..0,
        }];
        for (pos, &idx) in order.iter().enumerate() {
            let choices = &plan.trajectories[idx].choices;
            let mut at = 0usize;
            nodes[at].span.end = pos + 1;
            for (depth, &branch) in choices.iter().enumerate() {
                // Sorted insertion: a shared prefix is always the most
                // recently added child.
                let next = match nodes[at].children.last() {
                    Some(&(b, child)) if b == branch => child,
                    _ => {
                        let child = nodes.len();
                        nodes.push(PtsTreeNode {
                            depth: depth + 1,
                            children: Vec::new(),
                            leaves: Vec::new(),
                            rep: idx,
                            span: pos..pos,
                        });
                        nodes[at].children.push((branch, child));
                        child
                    }
                };
                at = next;
                nodes[at].span.end = pos + 1;
            }
            nodes[at].leaves.push(idx);
        }
        Self {
            nodes,
            n_sites,
            n_trajectories: plan.trajectories.len(),
        }
    }

    /// Root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &PtsTreeNode {
        &self.nodes[i]
    }

    /// Total node count (root included).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count = segment-advances a tree walk performs for the sites.
    pub fn n_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Site count each trajectory assigns (tree depth).
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Number of trajectories the tree was built from.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// Site applications a flat executor performs for the same plan.
    pub fn flat_prep_ops(&self) -> usize {
        self.n_trajectories * self.n_sites
    }

    /// Site applications *saved* by prefix sharing relative to flat
    /// execution (`trajectories × sites − edges`). Zero when nothing is
    /// shared; grows toward `flat_prep_ops` as trajectories converge on a
    /// common prefix.
    pub fn prep_ops_saved(&self) -> usize {
        self.flat_prep_ops() - self.n_edges()
    }

    /// Fraction of flat-execution site applications eliminated, in
    /// `[0, 1)`. Returns 0 for empty or site-free plans.
    pub fn sharing_ratio(&self) -> f64 {
        let flat = self.flat_prep_ops();
        if flat == 0 {
            return 0.0;
        }
        self.prep_ops_saved() as f64 / flat as f64
    }

    /// Total shots across all leaves, recomputed from the plan.
    pub fn total_shots(&self, plan: &PtsPlan) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter())
            .map(|&idx| plan.trajectories[idx].shots)
            .sum()
    }

    /// All leaf plan indices, in tree (sorted-assignment) order.
    pub fn leaf_plan_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter().copied())
            .collect()
    }

    /// Cut the depth-first leaf order into at most [`MAX_TREE_CHUNKS`]
    /// contiguous, cost-balanced ranges that together cover every leaf
    /// exactly once — the independent units a tree walk can spread over
    /// workers (see `TreeExecutor::execute_tree_range`). A pure function
    /// of the tree and the plan it was built from.
    ///
    /// A leaf's cost is the segment advances (tree edges, plus the
    /// trailing segment of each leaf node) it adds beyond its depth-first
    /// predecessor, plus its shots at [`SHOTS_PER_EDGE`] shots per
    /// advance. The chunk count is the largest power of two (up to
    /// [`MAX_TREE_CHUNKS`]) that leaves every chunk at least
    /// [`MIN_CHUNK_PATHS`] root-to-leaf paths of work, so the prefix a
    /// chunk replays stays small against what it runs. Each cut then
    /// snaps, within an eighth of a chunk of its balance point, to the
    /// position whose predecessor shares the shallowest common ancestor:
    /// a chunk starting there replays only that ancestor's prefix. A cut
    /// may fall inside one node's group of duplicate leaves, where the
    /// replay is the whole path.
    pub fn leaf_chunks(&self, plan: &PtsPlan) -> Vec<Range<usize>> {
        let n = self.n_trajectories;
        if n == 0 {
            return Vec::new();
        }
        // Every advance is charged to the first leaf that needs it: a
        // non-root node's edge and a leaf node's trailing segment to the
        // start of the node's span. What position p is not charged, a
        // chunk starting at p replays.
        let path = self.n_sites + 1;
        let mut fresh = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            fresh[node.span.start] += usize::from(i > 0) + usize::from(node.children.is_empty());
        }
        let order = self.leaf_plan_indices();
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0usize);
        for (p, &idx) in order.iter().enumerate() {
            let cost = fresh[p] * SHOTS_PER_EDGE + plan.trajectories[idx].shots;
            prefix.push(prefix[p] + cost);
        }
        let total = prefix[n];
        let min_chunk = MIN_CHUNK_PATHS * path * SHOTS_PER_EDGE;
        let affordable = (total / min_chunk).clamp(1, MAX_TREE_CHUNKS.min(n));
        let k = 1usize << affordable.ilog2();
        let window = total / (8 * k);
        let mut cuts = vec![0usize];
        for j in 1..k {
            let target = total * j / k;
            // Feasible cut positions leave every range non-empty.
            let lo = cuts[j - 1] + 1;
            let hi = n - (k - j);
            let crossing = prefix.partition_point(|&c| c < target).clamp(lo, hi);
            let from = prefix
                .partition_point(|&c| c < target.saturating_sub(window))
                .clamp(lo, hi);
            let to = prefix
                .partition_point(|&c| c <= target + window)
                .clamp(lo, hi + 1);
            let best = (from..to.max(from + 1))
                .chain(std::iter::once(crossing))
                .min_by_key(|&p| (path - fresh[p], prefix[p].abs_diff(target), p))
                .expect("at least the crossing position");
            cuts.push(best);
        }
        cuts.push(n);
        cuts.windows(2).map(|w| w[0]..w[1]).collect()
    }
}

/// Most leaf ranges [`PtsPlanTree::leaf_chunks`] cuts one tree into: a
/// fixed bound, never derived from worker or core counts, so the split
/// (and with it every chunk boundary a service schedules) is a pure
/// function of the plan. Eight keeps two workers busy to within one
/// eighth of a job with ordinary cost-model error.
pub const MAX_TREE_CHUNKS: usize = 8;

/// Shots whose sampling [`PtsPlanTree::leaf_chunks`] prices like one
/// segment advance (one tree edge). Measured warm, one thread: a 16-qubit
/// statevector walk pays about 370 µs per edge and 3.2 µs per shot
/// (about 117 shots per edge), a 36-qubit MPS walk about 600 µs per
/// edge and 100–240 µs per shot (about 4). One engine-free weight sits
/// between them; erring toward cheap shots leaves the duplicate-heavy
/// first chunk (the all-identity leaf sorts first) the largest, which a
/// worker pool absorbs best.
pub const SHOTS_PER_EDGE: usize = 32;

/// Least work per chunk, in root-to-leaf paths: a chunk replays at most
/// one path of shared prefix, so this bounds the replay overhead.
pub const MIN_CHUNK_PATHS: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};

    fn nc() -> NoisyCircuit {
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.25))
            .apply(&c)
    }

    #[test]
    fn totals() {
        let plan = PtsPlan {
            trajectories: vec![
                PlannedTrajectory {
                    choices: vec![0],
                    shots: 100,
                },
                PlannedTrajectory {
                    choices: vec![1],
                    shots: 50,
                },
            ],
        };
        assert_eq!(plan.n_trajectories(), 2);
        assert_eq!(plan.total_shots(), 150);
        let nc = nc();
        // coverage = 0.75 + 0.25/3
        assert!((plan.coverage(&nc) - (0.75 + 0.25 / 3.0)).abs() < 1e-12);
        assert_eq!(plan.max_error_weight(&nc), 1);
    }

    #[test]
    fn empty_plan() {
        let plan = PtsPlan::default();
        assert_eq!(plan.total_shots(), 0);
        assert_eq!(plan.coverage(&nc()), 0.0);
        assert_eq!(plan.max_error_weight(&nc()), 0);
    }

    fn plan_of(choices: &[&[usize]]) -> PtsPlan {
        PtsPlan {
            trajectories: choices
                .iter()
                .enumerate()
                .map(|(i, c)| PlannedTrajectory {
                    choices: c.to_vec(),
                    shots: 10 * (i + 1),
                })
                .collect(),
        }
    }

    #[test]
    fn tree_merges_shared_prefixes() {
        // Three trajectories share the [0, 0] prefix; one diverges at the
        // root.
        let plan = plan_of(&[&[0, 0, 1], &[0, 0, 0], &[1, 0, 0], &[0, 0, 2]]);
        let tree = PtsPlanTree::from_plan(&plan);
        // Nodes: root + shared path 0→0 (2) + three leaves under it +
        // distinct path 1→0→0 (3) = 9.
        assert_eq!(tree.n_nodes(), 9);
        assert_eq!(tree.n_edges(), 8);
        assert_eq!(tree.flat_prep_ops(), 12);
        assert_eq!(tree.prep_ops_saved(), 4);
        assert!((tree.sharing_ratio() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(tree.total_shots(&plan), plan.total_shots());
        // Every plan index appears exactly once among the leaves.
        let mut seen = tree.leaf_plan_indices();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tree_keeps_duplicate_trajectories_as_separate_leaf_entries() {
        let plan = plan_of(&[&[2, 1], &[2, 1], &[2, 1]]);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_nodes(), 3); // root + 2 path nodes
        assert_eq!(tree.prep_ops_saved(), 4); // 6 flat - 2 edges
        assert_eq!(tree.leaf_plan_indices(), vec![0, 1, 2]);
        assert_eq!(tree.total_shots(&plan), 60);
    }

    #[test]
    fn tree_of_disjoint_trajectories_saves_nothing() {
        let plan = plan_of(&[&[0, 0], &[1, 1], &[2, 2]]);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_edges(), 6);
        assert_eq!(tree.prep_ops_saved(), 0);
        assert_eq!(tree.sharing_ratio(), 0.0);
    }

    #[test]
    fn tree_rep_prefixes_match_paths() {
        let plan = plan_of(&[&[0, 1, 0], &[0, 1, 1], &[0, 0, 1], &[1, 1, 1]]);
        let tree = PtsPlanTree::from_plan(&plan);
        // Walk every node and check its rep's choices prefix spells the
        // path taken from the root.
        fn check(tree: &PtsPlanTree, plan: &PtsPlan, node: usize, path: &mut Vec<usize>) {
            let n = tree.node(node);
            assert_eq!(n.depth, path.len());
            assert_eq!(
                &plan.trajectories[n.rep].choices[..n.depth],
                path.as_slice()
            );
            for &(branch, child) in &n.children {
                path.push(branch);
                check(tree, plan, child, path);
                path.pop();
            }
        }
        check(&tree, &plan, tree.root(), &mut Vec::new());
    }

    #[test]
    fn spans_are_contiguous_runs_of_the_leaf_order() {
        let plan = plan_of(&[&[0, 1, 0], &[0, 1, 1], &[0, 0, 1], &[1, 1, 1], &[0, 1, 0]]);
        let tree = PtsPlanTree::from_plan(&plan);
        let order = tree.leaf_plan_indices();
        for i in 0..tree.n_nodes() {
            let node = tree.node(i);
            if node.children.is_empty() {
                assert_eq!(&order[node.span.clone()], node.leaves.as_slice());
            } else {
                // Children partition their parent's span, in order.
                let mut at = node.span.start;
                for &(_, c) in &node.children {
                    assert_eq!(tree.node(c).span.start, at);
                    at = tree.node(c).span.end;
                }
                assert_eq!(at, node.span.end);
            }
        }
        assert_eq!(tree.node(tree.root()).span, 0..5);
    }

    /// Per-position advances the split charges, recomputed by brute
    /// force: one per site beyond the LCA with the predecessor, plus the
    /// trailing segment, for a fresh assignment; none for a duplicate.
    fn fresh_advances(plan: &PtsPlan, order: &[usize], p: usize) -> usize {
        let cur = &plan.trajectories[order[p]].choices;
        if p == 0 {
            return cur.len() + 1;
        }
        let prev = &plan.trajectories[order[p - 1]].choices;
        let lca = cur.iter().zip(prev).take_while(|(a, b)| a == b).count();
        if lca == cur.len() {
            0
        } else {
            cur.len() - lca + 1
        }
    }

    #[test]
    fn leaf_chunks_cover_every_leaf_once_and_are_pure() {
        // 400 trajectories over 12 sites: a large duplicate group (the
        // all-zero assignment sorts first) plus scattered late errors.
        let mut choices: Vec<Vec<usize>> = Vec::new();
        for i in 0..400usize {
            let mut c = vec![0usize; 12];
            if i % 3 != 0 {
                c[(i * 7) % 12] = 1 + i % 2;
                c[(i * 5) % 12] = 1;
            }
            choices.push(c);
        }
        let plan = PtsPlan {
            trajectories: choices
                .into_iter()
                .enumerate()
                .map(|(i, choices)| PlannedTrajectory {
                    choices,
                    shots: 1 + i % 50,
                })
                .collect(),
        };
        let tree = PtsPlanTree::from_plan(&plan);
        let chunks = tree.leaf_chunks(&plan);
        assert!(chunks.len() > 1 && chunks.len() <= MAX_TREE_CHUNKS);
        assert!(chunks.len().is_power_of_two());
        // Contiguous, non-empty, covering 0..n exactly once.
        assert_eq!(chunks[0].start, 0);
        assert_eq!(chunks.last().unwrap().end, plan.n_trajectories());
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(chunks.iter().all(|r| !r.is_empty()));
        // Pure: the same tree, or a tree rebuilt from the same plan,
        // splits identically.
        assert_eq!(tree.leaf_chunks(&plan), chunks);
        assert_eq!(PtsPlanTree::from_plan(&plan).leaf_chunks(&plan), chunks);
        // Balanced: every chunk within a quarter of the mean cost of the
        // advances and shots the split charges.
        let order = tree.leaf_plan_indices();
        let cost = |p: usize| {
            fresh_advances(&plan, &order, p) * SHOTS_PER_EDGE + plan.trajectories[order[p]].shots
        };
        let costs: Vec<usize> = chunks.iter().map(|r| r.clone().map(cost).sum()).collect();
        let mean = costs.iter().sum::<usize>() / costs.len();
        for c in &costs {
            assert!(c.abs_diff(mean) <= mean / 4, "{costs:?}");
        }
    }

    #[test]
    fn leaf_chunks_cut_duplicate_groups_and_small_trees() {
        // One assignment, many duplicates: cuts must fall inside the
        // single leaf node's group.
        let plan = PtsPlan {
            trajectories: (0..100)
                .map(|_| PlannedTrajectory {
                    choices: vec![0, 0],
                    shots: 1000,
                })
                .collect(),
        };
        let tree = PtsPlanTree::from_plan(&plan);
        let chunks = tree.leaf_chunks(&plan);
        assert_eq!(chunks.len(), MAX_TREE_CHUNKS);
        assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), 100);
        // Too little work to pay for a replayed path: one chunk.
        let tiny = plan_of(&[&[0, 1], &[1, 0]]);
        assert_eq!(PtsPlanTree::from_plan(&tiny).leaf_chunks(&tiny), vec![0..2]);
        assert!(PtsPlanTree::from_plan(&PtsPlan::default())
            .leaf_chunks(&PtsPlan::default())
            .is_empty());
    }

    #[test]
    fn tree_of_empty_plan() {
        let tree = PtsPlanTree::from_plan(&PtsPlan::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.n_edges(), 0);
        assert_eq!(tree.prep_ops_saved(), 0);
        assert!(tree.leaf_plan_indices().is_empty());
    }
}
