//! Physical/underlay topology: nodes, links and shortest paths.

use gasf_core::time::Micros;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node in a [`Topology`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Capacity and propagation delay of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Usable bandwidth in bits per second. The paper notes that a
    /// wireless mesh's *effective* bandwidth is much smaller than its link
    /// capacity — configure the effective value here.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: Micros,
}

impl Default for LinkSpec {
    /// 1 Mbps effective bandwidth with 1 ms propagation — the Emulab
    /// configuration of §4.1.2.
    fn default() -> Self {
        LinkSpec {
            bandwidth_bps: 1_000_000,
            propagation: Micros::from_millis(1),
        }
    }
}

impl LinkSpec {
    /// Time to push `bytes` onto the wire plus propagation.
    pub fn transfer_time(&self, bytes: usize) -> Micros {
        let tx_us = (bytes as u64 * 8).saturating_mul(1_000_000) / self.bandwidth_bps.max(1);
        Micros(tx_us) + self.propagation
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Edge {
    to: u32,
    spec: LinkSpec,
}

/// An undirected multihop network.
///
/// ```rust
/// use gasf_net::Topology;
/// let topo = Topology::ring(7).build();
/// assert_eq!(topo.len(), 7);
/// assert!(topo.path(gasf_net::NodeId(0), gasf_net::NodeId(3)).is_some());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    adj: Vec<Vec<Edge>>,
}

impl Topology {
    /// Starts building a ring of `n` nodes (the paper's Emulab/DHT layout).
    pub fn ring(n: usize) -> TopologyBuilder {
        let mut b = TopologyBuilder::empty(n);
        for i in 0..n {
            b.pending.push((i, (i + 1) % n));
        }
        if n == 2 {
            b.pending.truncate(1);
        }
        b
    }

    /// Starts building a star: node 0 is the hub.
    pub fn star(n: usize) -> TopologyBuilder {
        let mut b = TopologyBuilder::empty(n);
        for i in 1..n {
            b.pending.push((0, i));
        }
        b
    }

    /// Starts building a line (chain) of `n` nodes — the worst case for
    /// multihop wireless meshes.
    pub fn line(n: usize) -> TopologyBuilder {
        let mut b = TopologyBuilder::empty(n);
        for i in 1..n {
            b.pending.push((i - 1, i));
        }
        b
    }

    /// Starts building a `w × h` grid (a typical mesh deployment).
    pub fn grid(w: usize, h: usize) -> TopologyBuilder {
        let mut b = TopologyBuilder::empty(w * h);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    b.pending.push((i, i + 1));
                }
                if y + 1 < h {
                    b.pending.push((i, i + w));
                }
            }
        }
        b
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// The link between two adjacent nodes, if any.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        self.adj
            .get(a.index())?
            .iter()
            .find(|e| e.to == b.0)
            .map(|e| e.spec)
    }

    /// The links of one node as `(neighbour, spec)`, in adjacency
    /// (insertion) order — the order every breadth-first search here
    /// discovers neighbours in. Empty for nodes outside the topology.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkSpec)> + '_ {
        self.adj
            .get(node.index())
            .into_iter()
            .flatten()
            .map(|e| (NodeId(e.to), e.spec))
    }

    /// The one breadth-first traversal behind [`path`](Self::path),
    /// [`is_connected`](Self::is_connected), [`hops_from`](Self::hops_from)
    /// and the overlay's cached route tables.
    ///
    /// `visit(node, pred, slot)` is called once per node other than `src`,
    /// when BFS first discovers it: `pred` is the node it was reached
    /// from and `slot` the index of that link in `pred`'s adjacency list.
    /// A predecessor is fixed at first discovery, so walking predecessors
    /// back from any node reproduces the same minimum-hop path whether or
    /// not the search stopped early. Returning `true` from `visit` stops
    /// the search. `src` must be a node of the topology.
    pub(crate) fn bfs(&self, src: NodeId, mut visit: impl FnMut(u32, u32, u32) -> bool) {
        let mut visited = vec![false; self.len()];
        visited[src.index()] = true;
        let mut queue = VecDeque::from([src.0]);
        while let Some(u) = queue.pop_front() {
            for (slot, e) in self.adj[u as usize].iter().enumerate() {
                if !visited[e.to as usize] {
                    visited[e.to as usize] = true;
                    if visit(e.to, u, slot as u32) {
                        return;
                    }
                    queue.push_back(e.to);
                }
            }
        }
    }

    /// Minimum-hop path between two nodes (BFS), `None` if disconnected.
    /// The returned path includes both endpoints.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        if from.index() >= self.len() || to.index() >= self.len() {
            return None;
        }
        let mut prev: Vec<u32> = vec![u32::MAX; self.len()];
        let mut found = false;
        self.bfs(from, |node, pred, _| {
            prev[node as usize] = pred;
            found = node == to.0;
            found
        });
        if !found {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to.0;
        while cur != from.0 {
            cur = prev[cur as usize];
            path.push(NodeId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Minimum hop counts from `src` to every node, from one BFS — the
    /// all-destinations form of [`path`](Self::path)`(src, to).len() - 1`.
    ///
    /// ```rust
    /// use gasf_net::{NodeId, Topology};
    /// let topo = Topology::line(4).build();
    /// let hops = topo.hops_from(NodeId(1));
    /// assert_eq!(hops.to(NodeId(3)), Some(2));
    /// assert_eq!(hops.to(NodeId(1)), Some(0));
    /// ```
    pub fn hops_from(&self, src: NodeId) -> Hops {
        let mut hops = vec![u32::MAX; self.len()];
        if src.index() < self.len() {
            hops[src.index()] = 0;
            self.bfs(src, |node, pred, _| {
                hops[node as usize] = hops[pred as usize] + 1;
                false
            });
        }
        Hops { hops }
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = 1;
        self.bfs(NodeId(0), |_, _, _| {
            seen += 1;
            false
        });
        seen == self.len()
    }
}

/// Minimum hop counts from one source node, as returned by
/// [`Topology::hops_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hops {
    hops: Vec<u32>,
}

impl Hops {
    /// Hops from the source to `node` (`Some(0)` for the source itself),
    /// `None` when `node` is unreachable or outside the topology.
    pub fn to(&self, node: NodeId) -> Option<usize> {
        match self.hops.get(node.index()) {
            Some(&h) if h != u32::MAX => Some(h as usize),
            _ => None,
        }
    }
}

/// Builder finishing a [`Topology`] with uniform or per-link specs.
#[derive(Debug)]
pub struct TopologyBuilder {
    n: usize,
    pending: Vec<(usize, usize)>,
    spec: LinkSpec,
    extra: Vec<(usize, usize, LinkSpec)>,
}

impl TopologyBuilder {
    fn empty(n: usize) -> Self {
        TopologyBuilder {
            n,
            pending: Vec::new(),
            spec: LinkSpec::default(),
            extra: Vec::new(),
        }
    }

    /// Custom builder with no predefined links.
    pub fn with_nodes(n: usize) -> Self {
        Self::empty(n)
    }

    /// Sets the uniform bandwidth (bits per second) for all builder links.
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        self.spec.bandwidth_bps = bps.max(1);
        self
    }

    /// Sets the uniform propagation delay for all builder links.
    pub fn propagation(mut self, delay: Micros) -> Self {
        self.spec.propagation = delay;
        self
    }

    /// Adds an extra link with an explicit spec.
    pub fn link(mut self, a: usize, b: usize, spec: LinkSpec) -> Self {
        self.extra.push((a, b, spec));
        self
    }

    /// Finalises the topology.
    ///
    /// # Panics
    /// Panics if a link references a node index `>= n` or is a self-loop —
    /// both are construction-time programming errors.
    pub fn build(self) -> Topology {
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); self.n];
        let add = |adj: &mut Vec<Vec<Edge>>, a: usize, b: usize, spec: LinkSpec| {
            assert!(a < self.n && b < self.n, "link ({a},{b}) out of range");
            assert_ne!(a, b, "self-loops are not allowed");
            if !adj[a].iter().any(|e| e.to == b as u32) {
                adj[a].push(Edge { to: b as u32, spec });
                adj[b].push(Edge { to: a as u32, spec });
            }
        };
        for (a, b) in self.pending {
            add(&mut adj, a, b, self.spec);
        }
        for (a, b, spec) in self.extra {
            add(&mut adj, a, b, spec);
        }
        Topology { adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_paths() {
        let t = Topology::ring(7).build();
        assert!(t.is_connected());
        let p = t.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 4); // 0-1-2-3
        let p = t.path(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(p.len(), 3); // 0-6-5
        assert_eq!(t.path(NodeId(2), NodeId(2)).unwrap(), vec![NodeId(2)]);
    }

    #[test]
    fn two_node_ring_has_single_link() {
        let t = Topology::ring(2).build();
        assert!(t.link(NodeId(0), NodeId(1)).is_some());
        assert_eq!(t.path(NodeId(0), NodeId(1)).unwrap().len(), 2);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::star(5).build();
        let p = t.path(NodeId(1), NodeId(4)).unwrap();
        assert_eq!(p, vec![NodeId(1), NodeId(0), NodeId(4)]);
    }

    #[test]
    fn line_is_a_chain() {
        let t = Topology::line(4).build();
        assert_eq!(t.path(NodeId(0), NodeId(3)).unwrap().len(), 4);
        assert!(t.link(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn grid_dimensions() {
        let t = Topology::grid(3, 2).build();
        assert_eq!(t.len(), 6);
        assert!(t.is_connected());
        // Manhattan path 0 -> 5 has 3 hops
        assert_eq!(t.path(NodeId(0), NodeId(5)).unwrap().len(), 4);
    }

    #[test]
    fn disconnected_detected() {
        let t = TopologyBuilder::with_nodes(3)
            .link(0, 1, LinkSpec::default())
            .build();
        assert!(!t.is_connected());
        assert!(t.path(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn hops_from_matches_path_lengths() {
        let extra = LinkSpec::default();
        let topologies = [
            Topology::grid(4, 3).link(0, 11, extra).build(),
            Topology::ring(9).build(),
            TopologyBuilder::with_nodes(5)
                .link(0, 1, extra)
                .link(3, 4, extra)
                .build(),
        ];
        for t in topologies {
            for a in t.nodes() {
                let hops = t.hops_from(a);
                for b in t.nodes() {
                    assert_eq!(hops.to(b), t.path(a, b).map(|p| p.len() - 1), "{a}->{b}");
                }
                assert_eq!(
                    hops.to(NodeId(t.len() as u32)),
                    None,
                    "outside the topology"
                );
            }
        }
        let outside = Topology::line(3).build().hops_from(NodeId(7));
        assert_eq!(outside.to(NodeId(0)), None);
    }

    #[test]
    fn neighbors_follow_insertion_order() {
        let t = Topology::star(4).link(2, 3, LinkSpec::default()).build();
        let of = |n| t.neighbors(NodeId(n)).map(|(m, _)| m.0).collect::<Vec<_>>();
        assert_eq!(of(0), vec![1, 2, 3]);
        assert_eq!(of(2), vec![0, 3]);
        assert!(t.neighbors(NodeId(9)).next().is_none());
    }

    #[test]
    fn transfer_time_model() {
        let l = LinkSpec {
            bandwidth_bps: 1_000_000,
            propagation: Micros::from_millis(1),
        };
        // 1 Mbit over 1 Mbps = 1 s (+1 ms propagation); the paper's "about
        // 1 ms for 1M data over a 1Mbps link" refers to 1 KB-scale tuples.
        assert_eq!(
            l.transfer_time(125_000),
            Micros::from_secs(1) + Micros::from_millis(1)
        );
        // a 100-byte tuple: 800 us tx + 1 ms
        assert_eq!(l.transfer_time(100), Micros(800) + Micros::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_panics() {
        let _ = TopologyBuilder::with_nodes(2)
            .link(0, 5, LinkSpec::default())
            .build();
    }

    #[test]
    fn builder_settings_apply() {
        let t = Topology::ring(3)
            .bandwidth_bps(5_000_000)
            .propagation(Micros(500))
            .build();
        let l = t.link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(l.bandwidth_bps, 5_000_000);
        assert_eq!(l.propagation, Micros(500));
    }
}
