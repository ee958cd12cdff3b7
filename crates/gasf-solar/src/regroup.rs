//! Filter (re)grouping strategies.
//!
//! §4.8/§6.2: *"Another way to alleviate the congestion-causing effect of
//! group-aware filtering is to reduce the group size. […] We thus need to
//! develop strategies for (re)grouping the filters. Grouping applications
//! according to their locations (within the network topology) may reduce
//! multicast overhead"*, and greedy consumers should be isolated from the
//! group. This module provides those partitioning strategies;
//! [`Middleware::regroup`](crate::Middleware::regroup) applies them to a
//! *live* source — it calls [`partition`] over the current subscribers
//! (feeding it measured per-filter reference rates) and migrates the
//! filters across engines at an epoch boundary, no teardown required.

use gasf_net::{Hops, NodeId, Topology};
use std::collections::BTreeMap;

/// A partition of filter indices into groups.
pub type Partition = Vec<Vec<usize>>;

/// How to split one source's subscribers into filter groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// Everyone in one group (the paper's default deployment).
    Single,
    /// Cluster subscribers whose nodes are within `max_hops` of each other
    /// on the underlay — local groups keep multicast trees small.
    ByProximity {
        /// Maximum pairwise hop distance within a group.
        max_hops: usize,
    },
    /// Isolate filters whose reference rate exceeds the threshold into
    /// singleton groups (they would dominate regions and starve the rest).
    BySelectivity {
        /// Reference-rate threshold for isolation.
        isolate_above: f64,
    },
    /// Split into groups of at most `n` filters (CPU bound per engine).
    MaxSize(
        /// Maximum group size.
        usize,
    ),
}

/// Partitions `n` filters according to the strategy.
///
/// * `nodes[i]` — the subscriber node of filter `i` (used by proximity),
/// * `reference_rates[i]` — the filter's SI output rate in `[0, 1]` (used
///   by selectivity; pass an empty slice if unknown).
///
/// The result always covers `0..n` exactly once, preserving index order
/// within each part.
pub fn partition(
    strategy: GroupingStrategy,
    topology: &Topology,
    nodes: &[NodeId],
    reference_rates: &[f64],
    n: usize,
) -> Partition {
    match strategy {
        GroupingStrategy::Single => {
            if n == 0 {
                Vec::new()
            } else {
                vec![(0..n).collect()]
            }
        }
        GroupingStrategy::MaxSize(cap) => {
            let cap = cap.max(1);
            (0..n)
                .collect::<Vec<usize>>()
                .chunks(cap)
                .map(|c| c.to_vec())
                .collect()
        }
        GroupingStrategy::BySelectivity { isolate_above } => {
            let mut shared = Vec::new();
            let mut parts: Partition = Vec::new();
            for i in 0..n {
                let rate = reference_rates.get(i).copied().unwrap_or(0.0);
                if rate > isolate_above {
                    parts.push(vec![i]);
                } else {
                    shared.push(i);
                }
            }
            if !shared.is_empty() {
                parts.insert(0, shared);
            }
            parts
        }
        GroupingStrategy::ByProximity { max_hops } => {
            let node_of = |i: usize| nodes.get(i).copied().unwrap_or(NodeId(0));
            // One BFS per distinct subscriber node, not one per pair.
            let mut tables: BTreeMap<NodeId, Hops> = BTreeMap::new();
            for i in 0..n {
                let node = node_of(i);
                tables
                    .entry(node)
                    .or_insert_with(|| topology.hops_from(node));
            }
            let hop = |a: NodeId, b: NodeId| -> usize {
                if a == b {
                    0
                } else {
                    tables[&a].to(b).unwrap_or(usize::MAX)
                }
            };
            let mut parts: Partition = Vec::new();
            for i in 0..n {
                let node = node_of(i);
                let home = parts
                    .iter_mut()
                    .find(|part| part.iter().all(|&j| hop(node, node_of(j)) <= max_hops));
                match home {
                    Some(part) => part.push(i),
                    None => parts.push(vec![i]),
                }
            }
            parts
        }
    }
}

/// Validates that a partition covers `0..n` exactly once.
pub fn is_valid_partition(parts: &Partition, n: usize) -> bool {
    let mut seen = vec![false; n];
    for part in parts {
        for &i in part {
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
    }
    seen.into_iter().all(|s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_net::Topology;

    fn topo() -> Topology {
        Topology::line(8).build()
    }

    #[test]
    fn single_groups_everything() {
        let p = partition(GroupingStrategy::Single, &topo(), &[], &[], 4);
        assert_eq!(p, vec![vec![0, 1, 2, 3]]);
        assert!(is_valid_partition(&p, 4));
        assert!(partition(GroupingStrategy::Single, &topo(), &[], &[], 0).is_empty());
    }

    #[test]
    fn max_size_chunks() {
        let p = partition(GroupingStrategy::MaxSize(3), &topo(), &[], &[], 8);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|part| part.len() <= 3));
        assert!(is_valid_partition(&p, 8));
        // cap of zero is clamped to 1
        let p = partition(GroupingStrategy::MaxSize(0), &topo(), &[], &[], 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn selectivity_isolates_greedy_consumers() {
        let rates = [0.1, 0.9, 0.2, 0.8];
        let p = partition(
            GroupingStrategy::BySelectivity { isolate_above: 0.6 },
            &topo(),
            &[],
            &rates,
            4,
        );
        assert!(is_valid_partition(&p, 4));
        assert_eq!(p[0], vec![0, 2], "modest filters stay grouped");
        assert!(p.contains(&vec![1]));
        assert!(p.contains(&vec![3]));
    }

    #[test]
    fn selectivity_with_no_rates_keeps_one_group() {
        let p = partition(
            GroupingStrategy::BySelectivity { isolate_above: 0.5 },
            &topo(),
            &[],
            &[],
            3,
        );
        assert_eq!(p, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn proximity_clusters_line_ends_separately() {
        // Apps at nodes 0,1 (left end) and 6,7 (right end) of a line:
        // with max 2 hops they form two groups.
        let nodes = [NodeId(0), NodeId(1), NodeId(6), NodeId(7)];
        let p = partition(
            GroupingStrategy::ByProximity { max_hops: 2 },
            &topo(),
            &nodes,
            &[],
            4,
        );
        assert!(is_valid_partition(&p, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], vec![0, 1]);
        assert_eq!(p[1], vec![2, 3]);
    }

    #[test]
    fn proximity_with_large_budget_is_one_group() {
        let nodes = [NodeId(0), NodeId(3), NodeId(7)];
        let p = partition(
            GroupingStrategy::ByProximity { max_hops: 10 },
            &topo(),
            &nodes,
            &[],
            3,
        );
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn proximity_handles_disconnected_nodes() {
        let topo = gasf_net::TopologyBuilder::with_nodes(4)
            .link(0, 1, gasf_net::LinkSpec::default())
            .link(2, 3, gasf_net::LinkSpec::default())
            .build();
        let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let p = partition(
            GroupingStrategy::ByProximity { max_hops: 3 },
            &topo,
            &nodes,
            &[],
            4,
        );
        assert!(is_valid_partition(&p, 4));
        assert_eq!(p.len(), 2, "islands cannot share a group");
    }

    #[test]
    fn validator_rejects_bad_partitions() {
        assert!(!is_valid_partition(&vec![vec![0, 0]], 2));
        assert!(!is_valid_partition(&vec![vec![0]], 2));
        assert!(!is_valid_partition(&vec![vec![5]], 2));
        assert!(is_valid_partition(&vec![vec![1], vec![0]], 2));
    }
}
