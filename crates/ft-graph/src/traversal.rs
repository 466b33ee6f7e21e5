//! Breadth-first traversal, the stage-aware route search, topological
//! order and DAG depth.
//!
//! Algorithms are generic over [`Digraph`] and accept an *edge filter* so
//! the same code traverses a pristine network, a failure-stricken survivor
//! (open failures remove edges) or a repaired network (faulty vertices
//! removed) without materialising a new graph per Monte Carlo trial.

use crate::ids::{EdgeId, VertexId};
use crate::workspace::TraversalWorkspace;
use crate::Digraph;
use std::collections::VecDeque;

/// Distance value meaning "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// Result of a BFS sweep.
#[derive(Clone, Debug)]
pub struct Bfs {
    /// `dist[v]` = number of edges from the nearest source (`UNREACHED` if none).
    pub dist: Vec<u32>,
    /// `parent_edge[v]` = edge by which `v` was discovered (NONE for sources).
    pub parent_edge: Vec<EdgeId>,
    /// Vertices in discovery order.
    pub order: Vec<VertexId>,
}

impl Bfs {
    /// Whether `v` was reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()] != UNREACHED
    }

    /// Reconstructs a path from some source to `v` (inclusive), following
    /// parent edges backwards. Returns `None` if `v` was not reached.
    /// `g` must be the graph the BFS ran on.
    pub fn path_to(&self, g: &impl Digraph, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while !self.parent_edge[cur.index()].is_none() {
            let e = self.parent_edge[cur.index()];
            cur = g.other_endpoint(e, cur);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Direction in which BFS follows edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges tail → head.
    Forward,
    /// Follow edges head → tail.
    Backward,
    /// Ignore orientation (the paper's `dist`, §5).
    Undirected,
}

/// BFS from `sources`, following edges per `dir`, visiting only edges for
/// which `edge_ok` holds and vertices for which `vertex_ok` holds.
/// Sources failing `vertex_ok` are skipped.
pub fn bfs<G: Digraph>(
    g: &G,
    sources: &[VertexId],
    dir: Direction,
    mut edge_ok: impl FnMut(EdgeId) -> bool,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
) -> Bfs {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut parent_edge = vec![EdgeId::NONE; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHED && vertex_ok(s) {
            dist[s.index()] = 0;
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        let sides: [&[EdgeId]; 2] = match dir {
            Direction::Forward => [g.out_edge_slice(u), &[]],
            Direction::Backward => [g.in_edge_slice(u), &[]],
            Direction::Undirected => [g.out_edge_slice(u), g.in_edge_slice(u)],
        };
        for edges in sides {
            for &e in edges {
                if !edge_ok(e) {
                    continue;
                }
                let w = g.other_endpoint(e, u);
                if dist[w.index()] == UNREACHED && vertex_ok(w) {
                    dist[w.index()] = du + 1;
                    parent_edge[w.index()] = e;
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
    }
    Bfs {
        dist,
        parent_edge,
        order,
    }
}

/// Zero-allocation BFS into a reusable [`TraversalWorkspace`].
///
/// Semantically identical to [`bfs`] (same discovery order, distances
/// and parent edges — pinned by proptests) but borrows its buffers from
/// `ws` instead of allocating, and clears them in O(touched) via the
/// workspace epoch. Query the result through the workspace accessors
/// ([`TraversalWorkspace::reached`], [`TraversalWorkspace::dist`],
/// [`TraversalWorkspace::order`], [`TraversalWorkspace::path_to`]).
///
/// This is the Monte Carlo hot path: run it over a [`crate::Csr`]
/// snapshot, not the `Vec<Vec>` builder graph.
pub fn bfs_into<G: Digraph>(
    g: &G,
    sources: &[VertexId],
    dir: Direction,
    mut edge_ok: impl FnMut(EdgeId) -> bool,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    ws: &mut TraversalWorkspace,
) {
    ws.begin(g.num_vertices());
    for &s in sources {
        if !ws.is_touched(s.index()) && vertex_ok(s) {
            ws.touch(s.index());
            ws.dist[s.index()] = 0;
            ws.parent[s.index()] = EdgeId::NONE.0;
            ws.queue.push(s);
        }
    }
    let mut head = 0;
    while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        let du = ws.dist[u.index()];
        // Out-edges pair with their heads, in-edges with their tails;
        // for a self-loop either one equals `other_endpoint`, so the
        // parallel slices are valid in every direction.
        let sides: [(&[EdgeId], Option<&[VertexId]>); 2] = match dir {
            Direction::Forward => [(g.out_edge_slice(u), g.out_head_slice(u)), (&[], None)],
            Direction::Backward => [(g.in_edge_slice(u), g.in_tail_slice(u)), (&[], None)],
            Direction::Undirected => [
                (g.out_edge_slice(u), g.out_head_slice(u)),
                (g.in_edge_slice(u), g.in_tail_slice(u)),
            ],
        };
        for (edges, others) in sides {
            match others {
                // CSR fast path: neighbour read straight off the
                // parallel slice, no `endpoints` indirection.
                Some(others) => {
                    for (&e, &w) in edges.iter().zip(others) {
                        if !edge_ok(e) {
                            continue;
                        }
                        if !ws.is_touched(w.index()) && vertex_ok(w) {
                            ws.touch(w.index());
                            ws.dist[w.index()] = du + 1;
                            ws.parent[w.index()] = e.0;
                            ws.queue.push(w);
                        }
                    }
                }
                None => {
                    for &e in edges {
                        if !edge_ok(e) {
                            continue;
                        }
                        let w = g.other_endpoint(e, u);
                        if !ws.is_touched(w.index()) && vertex_ok(w) {
                            ws.touch(w.index());
                            ws.dist[w.index()] = du + 1;
                            ws.parent[w.index()] = e.0;
                            ws.queue.push(w);
                        }
                    }
                }
            }
        }
    }
}

/// Expands the backward frontier entries `range` of `bwd` one level
/// (toward the inputs), marking every `ok` in-tail as reaching the
/// target. Only membership matters downstream.
fn expand_backward_level<G: Digraph>(
    g: &G,
    bwd: &mut TraversalWorkspace,
    range: std::ops::Range<usize>,
    mut ok: impl FnMut(VertexId) -> bool,
) {
    for qi in range {
        let u = bwd.queue[qi];
        let (edges, tails) = (g.in_edge_slice(u), g.in_tail_slice(u));
        for (i, &e) in edges.iter().enumerate() {
            // CSR fast path: neighbour read off the parallel slice.
            let w = tails.map_or_else(|| g.other_endpoint(e, u), |t| t[i]);
            if !bwd.is_touched(w.index()) && ok(w) {
                bwd.touch(w.index());
                bwd.queue.push(w);
            }
        }
    }
}

/// Stage-aware point-to-point route search over a **unit-staged**
/// network (every edge joins adjacent stages — see
/// [`crate::StagedNetwork::is_unit_staged`]): a backward cone grown
/// from `target`, then a first-hit depth-first search from `source`
/// pruned to that cone.
///
/// Returns whether `target` is reachable from `source` through vertices
/// passing `vertex_ok`; on success the path is read from `fwd` with
/// [`TraversalWorkspace::path_to`] /
/// [`TraversalWorkspace::path_to_into`]. Nothing else in `fwd` is
/// meaningful afterwards: its queue is the search stack and its
/// distance slots hold out-edge cursors.
///
/// # Exactness
///
/// The reachability verdict **and the reconstructed path** are
/// bit-identical to what a full forward [`bfs_into`] with the same
/// vertex filter (and no edge filter) produces — same parent edges,
/// same tie-breaks — so callers whose downstream behaviour depends on
/// the exact path (the deterministic simulation engine, whose event
/// fingerprints are pinned) see the BFS path at a fraction of the work.
///
/// Order the source → `v` paths through `vertex_ok` vertices
/// lexicographically by the sequence of out-edge *positions* they take
/// (the index of each edge in its tail's out-edge list).
///
/// 1. **BFS returns the lexicographically first path.** Unit staging
///    puts every vertex at BFS distance `stage − s0`, so all paths to a
///    vertex have the same length. BFS dequeues a stage in the order of
///    its vertices' first paths, and scans out-edges by position, so a
///    vertex is discovered from the predecessor with the smallest first
///    path, via that predecessor's first edge to it — which is the
///    smallest path to the vertex. By induction over stages the BFS
///    tree path to every vertex, `target` included, is its
///    lexicographically first path.
/// 2. **The depth-first search returns it too.** The search scans
///    out-edges by position, so it tries paths in lexicographic order.
///    It stamps every vertex the first time it sees it and never looks
///    at it again; a stamped vertex is rejected (not `vertex_ok`, or
///    outside the cone), on the stack (impossible to meet again: the
///    stack holds only earlier stages), or exhausted — every out-edge
///    tried without reaching `target`, so no path through it can. Each
///    skip therefore only drops paths that cannot reach `target`, and
///    the first path to reach it is the lexicographically first one.
///
/// Two facts make the backward prune invisible:
///
/// 1. **Closure.** If a vertex reaches `target` through `vertex_ok`
///    vertices, so does each of its `vertex_ok` in-neighbours (via that
///    vertex), so the cone is exactly the target-reaching set on every
///    stage it covers, and is itself made of `vertex_ok` vertices.
/// 2. **Stage-completeness.** Unit staging means a vertex at stage `s`
///    can reach the stage-`sL` target only in exactly `sL − s` hops, so
///    once the backward cone has been expanded `j` levels it is
///    *complete* for every stage `≥ sL − j`: cone membership there *is*
///    target-reachability. The forward search is pruned only at those
///    stages.
///
/// Every vertex is stamped at most once and every out-edge scanned at
/// most once, so a blocked search is O(V + E), like the BFS. Pinned by
/// proptests against [`bfs_into`].
///
/// # Backward budget
///
/// `max_backward_levels` caps how many levels the backward cone may
/// grow (never past the stage after `source`). The cap trades pruning
/// power against backward scan cost and **cannot affect the result**
/// (any correct prune is invisible — exactness holds for every budget,
/// which the proptests sample): fabrics with narrow output cones (Clos
/// egress groups, butterfly sub-trees) profit from a deep cone, while
/// expander-like fabrics whose cones saturate a stage in one or two
/// hops (the paper's 𝒩) should pass a small budget or `0`, leaving a
/// depth-first search pruned only at the target's own stage. Callers
/// that route many times over one topology should derive the budget
/// from a one-off structural analysis (see
/// [`crate::StagedNetwork::backward_budget`]).
///
/// `vertex_ok` must be a pure predicate: it is consulted in an
/// unspecified order and from both directions.
#[allow(clippy::too_many_arguments)] // flat kernel signature, hot path
pub fn bibfs_into<G: Digraph>(
    g: &G,
    source: VertexId,
    target: VertexId,
    stage_of: &[u32],
    max_backward_levels: u32,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    fwd: &mut TraversalWorkspace,
    bwd: &mut TraversalWorkspace,
) -> bool {
    let n = g.num_vertices();
    debug_assert_eq!(stage_of.len(), n);
    fwd.begin(n);
    bwd.begin(n);
    if !vertex_ok(source) || !vertex_ok(target) {
        return false;
    }
    fwd.touch(source.index());
    fwd.dist[source.index()] = 0;
    fwd.parent[source.index()] = EdgeId::NONE.0;
    fwd.queue.push(source);
    if source == target {
        return true;
    }
    let (s0, sl) = (stage_of[source.index()], stage_of[target.index()]);
    if sl <= s0 {
        return false; // stages only increase along unit-staged edges
    }
    bwd.touch(target.index());
    bwd.queue.push(target);

    // Backward cone: stages `meet..=sl` end up complete in `bwd`.
    let mut meet = sl;
    let mut bhead = 0usize;
    while s0 + 1 < meet && sl - meet < max_backward_levels {
        let end = bwd.queue.len();
        bwd.stats.bibfs_pops += (end - bhead) as u64;
        expand_backward_level(g, bwd, bhead..end, &mut vertex_ok);
        bhead = end;
        meet -= 1;
        if bwd.queue.len() == bhead {
            // No vertex at stage `meet` reaches the target, and any
            // source → target path must cross that stage.
            return false;
        }
    }

    // Depth-first search: `fwd.queue` is the stack (stack depth =
    // stage − s0) and `fwd.dist[u]` the next out-edge position of `u`.
    fwd.stats.bibfs_pops += 1;
    while let Some(&u) = fwd.queue.last() {
        // Children sit at stage `s0 + depth`; from `meet` on, the cone
        // decides (it holds only `vertex_ok` vertices).
        let pruned = s0 + fwd.queue.len() as u32 >= meet;
        let (edges, heads) = (g.out_edge_slice(u), g.out_head_slice(u));
        let mut i = fwd.dist[u.index()] as usize;
        let mut step = None;
        while i < edges.len() {
            let e = edges[i];
            let w = heads.map_or_else(|| g.other_endpoint(e, u), |h| h[i]);
            i += 1;
            if fwd.is_touched(w.index()) {
                continue;
            }
            fwd.touch(w.index());
            let keep = if pruned {
                bwd.is_touched(w.index())
            } else {
                vertex_ok(w)
            };
            if keep {
                step = Some((e, w));
                break;
            }
        }
        fwd.dist[u.index()] = i as u32;
        match step {
            Some((e, w)) => {
                fwd.parent[w.index()] = e.0;
                if w == target {
                    return true;
                }
                fwd.stats.bibfs_pops += 1;
                fwd.dist[w.index()] = 0;
                fwd.queue.push(w);
            }
            None => {
                fwd.queue.pop();
            }
        }
    }
    false
}

/// BFS forward from a single source with no filters.
pub fn bfs_forward<G: Digraph>(g: &G, source: VertexId) -> Bfs {
    bfs(g, &[source], Direction::Forward, |_| true, |_| true)
}

/// BFS ignoring direction from a single source with no filters.
pub fn bfs_undirected<G: Digraph>(g: &G, source: VertexId) -> Bfs {
    bfs(g, &[source], Direction::Undirected, |_| true, |_| true)
}

/// Set of vertices reachable (forward) from `sources` through `edge_ok`
/// edges and `vertex_ok` vertices, as a boolean mask.
pub fn reachable<G: Digraph>(
    g: &G,
    sources: &[VertexId],
    edge_ok: impl FnMut(EdgeId) -> bool,
    vertex_ok: impl FnMut(VertexId) -> bool,
) -> Vec<bool> {
    let b = bfs(g, sources, Direction::Forward, edge_ok, vertex_ok);
    b.dist.iter().map(|&d| d != UNREACHED).collect()
}

/// Topological order of a DAG; `None` if the graph has a directed cycle.
pub fn topo_order<G: Digraph>(g: &G) -> Option<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut indeg: Vec<u32> = (0..n)
        .map(|v| g.in_edge_slice(VertexId::from(v)).len() as u32)
        .collect();
    let mut queue: VecDeque<VertexId> = (0..n)
        .map(VertexId::from)
        .filter(|&v| indeg[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &e in g.out_edge_slice(u) {
            let w = g.edge_head(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push_back(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Whether the digraph is acyclic. All networks in the paper are DAGs.
pub fn is_acyclic<G: Digraph>(g: &G) -> bool {
    topo_order(g).is_some()
}

/// Length (in edges) of the longest directed path in a DAG — the paper's
/// **depth** when measured from inputs to outputs.
///
/// # Panics
/// Panics if the graph has a directed cycle.
pub fn dag_depth<G: Digraph>(g: &G) -> u32 {
    let order = topo_order(g).expect("dag_depth requires an acyclic graph");
    let mut depth = vec![0u32; g.num_vertices()];
    let mut best = 0;
    for u in order {
        let du = depth[u.index()];
        best = best.max(du);
        for &e in g.out_edge_slice(u) {
            let w = g.edge_head(e);
            depth[w.index()] = depth[w.index()].max(du + 1);
        }
    }
    best
}

/// Longest directed path from any vertex of `from` to any vertex of `to`
/// (in edges); `None` if no such path exists. This is the paper's depth
/// measure restricted to input→output paths.
pub fn dag_depth_between<G: Digraph>(g: &G, from: &[VertexId], to: &[VertexId]) -> Option<u32> {
    let order = topo_order(g).expect("dag_depth_between requires an acyclic graph");
    const MINF: i64 = i64::MIN;
    let mut depth = vec![MINF; g.num_vertices()];
    for &s in from {
        depth[s.index()] = 0;
    }
    for u in order {
        let du = depth[u.index()];
        if du == MINF {
            continue;
        }
        for &e in g.out_edge_slice(u) {
            let w = g.edge_head(e);
            if depth[w.index()] < du + 1 {
                depth[w.index()] = du + 1;
            }
        }
    }
    to.iter()
        .map(|t| depth[t.index()])
        .filter(|&d| d != MINF)
        .max()
        .map(|d| d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{e, v};
    use crate::DiGraph;

    fn chain(n: usize) -> DiGraph {
        let mut g = DiGraph::new();
        g.add_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(v(i as u32), v(i as u32 + 1));
        }
        g
    }

    #[test]
    fn bfs_chain_distances() {
        let g = chain(5);
        let b = bfs_forward(&g, v(0));
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.order.len(), 5);
        let p = b.path_to(&g, v(4)).unwrap();
        assert_eq!(p, vec![v(0), v(1), v(2), v(3), v(4)]);
    }

    #[test]
    fn bfs_backward_and_undirected() {
        let g = chain(4);
        let fwd = bfs(&g, &[v(3)], Direction::Forward, |_| true, |_| true);
        assert!(!fwd.reached(v(0)));
        let bwd = bfs(&g, &[v(3)], Direction::Backward, |_| true, |_| true);
        assert_eq!(bwd.dist[0], 3);
        let und = bfs(&g, &[v(1)], Direction::Undirected, |_| true, |_| true);
        assert_eq!(und.dist, vec![1, 0, 1, 2]);
    }

    #[test]
    fn bfs_edge_filter_blocks() {
        let g = chain(4);
        // block the middle edge e1 (v1 -> v2)
        let b = bfs(&g, &[v(0)], Direction::Forward, |x| x != e(1), |_| true);
        assert!(b.reached(v(1)));
        assert!(!b.reached(v(2)));
    }

    #[test]
    fn bfs_vertex_filter_blocks() {
        let g = chain(4);
        let b = bfs(&g, &[v(0)], Direction::Forward, |_| true, |x| x != v(2));
        assert!(b.reached(v(1)));
        assert!(!b.reached(v(2)));
        assert!(!b.reached(v(3)));
    }

    #[test]
    fn bfs_filtered_source() {
        let g = chain(3);
        let b = bfs(&g, &[v(0)], Direction::Forward, |_| true, |x| x != v(0));
        assert!(!b.reached(v(0)));
        assert!(b.order.is_empty());
    }

    #[test]
    fn multi_source_bfs() {
        let g = chain(6);
        let b = bfs(&g, &[v(0), v(4)], Direction::Forward, |_| true, |_| true);
        assert_eq!(b.dist[5], 1, "nearest source wins");
        assert_eq!(b.dist[3], 3);
    }

    #[test]
    fn topo_order_on_dag() {
        let mut g = DiGraph::new();
        g.add_vertices(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(0), v(2));
        g.add_edge(v(1), v(3));
        g.add_edge(v(2), v(3));
        let order = topo_order(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, u) in order.iter().enumerate() {
                p[u.index()] = i;
            }
            p
        };
        for (_, t, h) in g.edges() {
            assert!(pos[t.index()] < pos[h.index()]);
        }
        assert!(is_acyclic(&g));
        assert_eq!(dag_depth(&g), 2);
    }

    #[test]
    fn cycle_detected() {
        let mut g = DiGraph::new();
        g.add_vertices(3);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        g.add_edge(v(2), v(0));
        assert!(topo_order(&g).is_none());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn depth_between_terminals() {
        // diamond with a long tail not between terminals
        let mut g = DiGraph::new();
        g.add_vertices(6);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        g.add_edge(v(0), v(2));
        g.add_edge(v(3), v(4)); // disconnected tail
        g.add_edge(v(4), v(5));
        assert_eq!(dag_depth_between(&g, &[v(0)], &[v(2)]), Some(2));
        assert_eq!(dag_depth_between(&g, &[v(2)], &[v(0)]), None);
        assert_eq!(dag_depth_between(&g, &[v(0), v(3)], &[v(2), v(5)]), Some(2));
        assert_eq!(dag_depth(&g), 2);
    }

    #[test]
    fn reachable_mask() {
        let g = chain(4);
        let m = reachable(&g, &[v(1)], |_| true, |_| true);
        assert_eq!(m, vec![false, true, true, true]);
    }

    #[test]
    fn bfs_into_matches_allocating_bfs() {
        let g = chain(6);
        let mut ws = TraversalWorkspace::new();
        for dir in [
            Direction::Forward,
            Direction::Backward,
            Direction::Undirected,
        ] {
            let a = bfs(&g, &[v(2), v(4)], dir, |x| x != e(1), |x| x != v(5));
            bfs_into(
                &g,
                &[v(2), v(4)],
                dir,
                |x| x != e(1),
                |x| x != v(5),
                &mut ws,
            );
            for u in 0..6 {
                assert_eq!(a.dist[u], ws.dist(v(u as u32)), "dir {dir:?} vertex {u}");
                assert_eq!(a.parent_edge[u], ws.parent_edge(v(u as u32)));
            }
            assert_eq!(a.order, ws.order());
        }
    }

    #[test]
    fn bibfs_matches_bfs_on_small_staged_net() {
        use crate::staged::StagedBuilder;
        // 3 stages, 2 wide, fully wired: plenty of equal-length paths,
        // so the tie-break rules are what is under test.
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(2);
        let s1 = b.add_stage(2);
        let s2 = b.add_stage(2);
        for t in s0.clone() {
            for h in s1.clone() {
                b.add_edge(v(t), v(h));
            }
        }
        for t in s1.clone() {
            for h in s2.clone() {
                b.add_edge(v(t), v(h));
            }
        }
        b.set_inputs(s0.map(v).collect());
        b.set_outputs(s2.map(v).collect());
        let net = b.finish();
        assert!(net.is_unit_staged());
        let csr = net.csr();
        let (mut rws, mut fwd, mut bwd) = (
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
        );
        // every pair, under every single-vertex knockout of stage 1
        for knockout in [None, Some(v(2)), Some(v(3))] {
            let ok = |u: VertexId| Some(u) != knockout;
            for src in 0..2u32 {
                for dst in 4..6u32 {
                    bfs_into(csr, &[v(src)], Direction::Forward, |_| true, ok, &mut rws);
                    let want = rws.path_to(csr, v(dst));
                    // every budget must give the identical answer
                    for budget in [0, 1, u32::MAX] {
                        let got = bibfs_into(
                            csr,
                            v(src),
                            v(dst),
                            net.stage_table(),
                            budget,
                            ok,
                            &mut fwd,
                            &mut bwd,
                        );
                        assert_eq!(got, want.is_some());
                        if got {
                            assert_eq!(fwd.path_to(csr, v(dst)).unwrap(), want.clone().unwrap());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bibfs_takes_the_bfs_path_in_out_edge_order() {
        use crate::staged::StagedBuilder;
        // s = 0 | a = 1, b = 2 | c = 3, d = 4, e = 5 | t = 6, u = 7.
        // Out-edges are inserted against id order (s: b before a), and
        // e is a dead end (it reaches only u) entered from b and from a.
        let mut g = StagedBuilder::new();
        for width in [1, 2, 3, 2] {
            g.add_stage(width);
        }
        for (t, h) in [
            (0, 2),
            (0, 1),
            (2, 5),
            (2, 4),
            (1, 3),
            (1, 5),
            (5, 7),
            (4, 6),
            (3, 6),
        ] {
            g.add_edge(v(t), v(h));
        }
        g.set_inputs(vec![v(0)]);
        g.set_outputs(vec![v(6), v(7)]);
        let net = g.finish();
        assert!(net.is_unit_staged());
        let csr = net.csr();
        let (mut rws, mut fwd, mut bwd) = (
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
        );
        // BFS and the out-edge-ordered search take s b d t. A search in
        // vertex-id order (a before b), or one that pushes all of a
        // vertex's children and pops the last (b, a → a first), takes
        // s a c t. With d busy, the search must give up on b — after
        // dead-ending in e — and find s a c t without re-entering e.
        for (busy, want) in [(None, [0, 2, 4, 6]), (Some(v(4)), [0, 1, 3, 6])] {
            let ok = |u: VertexId| Some(u) != busy;
            bfs_into(csr, &[v(0)], Direction::Forward, |_| true, ok, &mut rws);
            let want: Vec<VertexId> = want.into_iter().map(v).collect();
            assert_eq!(rws.path_to(csr, v(6)).unwrap(), want);
            for budget in [0, 1, 2, u32::MAX] {
                let found = bibfs_into(
                    csr,
                    v(0),
                    v(6),
                    net.stage_table(),
                    budget,
                    ok,
                    &mut fwd,
                    &mut bwd,
                );
                assert!(found, "budget {budget}");
                assert_eq!(fwd.path_to(csr, v(6)).unwrap(), want, "budget {budget}");
            }
        }
    }

    #[test]
    fn bibfs_edge_cases() {
        use crate::staged::StagedBuilder;
        // a 2-stage (adjacent source/target) network
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(2);
        let s1 = b.add_stage(2);
        b.add_edge(v(s0.start), v(s1.start));
        b.set_inputs(s0.clone().map(v).collect());
        b.set_outputs(s1.clone().map(v).collect());
        let net = b.finish();
        let csr = net.csr();
        let (mut fwd, mut bwd) = (TraversalWorkspace::new(), TraversalWorkspace::new());
        let tab = net.stage_table();
        // direct edge: found
        assert!(bibfs_into(
            csr,
            v(0),
            v(2),
            tab,
            u32::MAX,
            |_| true,
            &mut fwd,
            &mut bwd
        ));
        assert_eq!(fwd.path_to(csr, v(2)).unwrap(), vec![v(0), v(2)]);
        // absent edge: blocked
        assert!(!bibfs_into(
            csr,
            v(1),
            v(3),
            tab,
            u32::MAX,
            |_| true,
            &mut fwd,
            &mut bwd
        ));
        // busy source / busy target: blocked
        assert!(!bibfs_into(
            csr,
            v(0),
            v(2),
            tab,
            u32::MAX,
            |u| u != v(0),
            &mut fwd,
            &mut bwd
        ));
        assert!(!bibfs_into(
            csr,
            v(0),
            v(2),
            tab,
            u32::MAX,
            |u| u != v(2),
            &mut fwd,
            &mut bwd
        ));
        // source == target is trivially reachable
        assert!(bibfs_into(
            csr,
            v(0),
            v(0),
            tab,
            u32::MAX,
            |_| true,
            &mut fwd,
            &mut bwd
        ));
        assert_eq!(fwd.path_to(csr, v(0)).unwrap(), vec![v(0)]);
        // target at an earlier stage than the source: unreachable
        assert!(!bibfs_into(
            csr,
            v(2),
            v(0),
            tab,
            u32::MAX,
            |_| true,
            &mut fwd,
            &mut bwd
        ));
    }

    #[test]
    fn works_on_csr_too() {
        let g = chain(5);
        let c = crate::Csr::from_digraph(&g);
        let b = bfs_forward(&c, v(0));
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(dag_depth(&c), 4);
    }
}
