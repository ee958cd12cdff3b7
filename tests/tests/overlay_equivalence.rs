//! Pins the overlay's **send-path equivalence contract**: the route-cached
//! overlay (`gasf_net::Overlay`) behaves exactly like the reference
//! implementation below — the straightforward one that runs a fresh BFS
//! for every overlay hop, looks links up by scanning adjacency lists, and
//! keeps trees, repaired edges and link counters in hash maps.
//!
//! Over random ring/star/line/grid topologies with extra links of mixed
//! specs (plus disconnected ones), random memberships and interleaved
//! `join_group`/`leave_group`/`fail_node`/`recover_node`/`remove_group`,
//! every send, control call and error must agree, and so must every
//! counter: `total_bytes`, `max_link_bytes`, `link_loads`, `messages`,
//! `repairs`, `repair_bytes`.
//!
//! One deliberate difference from the code the reference was taken from:
//! a failed send accounts nothing. The reference restores its link
//! counters when a send fails, which is the contract the overlay keeps.

use gasf_core::time::Micros;
use gasf_net::{
    Delivery, GroupId, LinkSpec, NetError, NodeId, Overlay, OverlayConfig, RepairReport, Topology,
    TopologyBuilder,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

// ----------------------------------------------------------------------
// the reference overlay
// ----------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

/// Minimum-hop path by a fresh BFS, stopping when `to` is discovered.
fn bfs_path(topology: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    if from.index() >= topology.len() || to.index() >= topology.len() {
        return None;
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; topology.len()];
    let mut visited = vec![false; topology.len()];
    visited[from.index()] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for (v, _) in topology.neighbors(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                prev[v.index()] = Some(u);
                if v == to {
                    let mut path = vec![to];
                    let mut cur = u;
                    loop {
                        path.push(cur);
                        match prev[cur.index()] {
                            Some(p) => cur = p,
                            None => break,
                        }
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
    }
    None
}

#[derive(Debug, Clone)]
struct RefGroup {
    root: NodeId,
    members: Vec<NodeId>,
    parent: HashMap<NodeId, NodeId>,
    repaired: HashSet<(u32, u32)>,
}

#[derive(Debug)]
struct RefOverlay {
    topology: Topology,
    config: OverlayConfig,
    ring: Vec<NodeId>,
    groups: HashMap<GroupId, RefGroup>,
    link_bytes: HashMap<(u32, u32), u64>,
    messages: u64,
    failed: BTreeSet<NodeId>,
    repairs: u64,
    repair_bytes: u64,
}

impl RefOverlay {
    fn new(topology: Topology, config: OverlayConfig) -> Self {
        RefOverlay {
            ring: topology.nodes().collect(),
            topology,
            config,
            groups: HashMap::new(),
            link_bytes: HashMap::new(),
            messages: 0,
            failed: BTreeSet::new(),
            repairs: 0,
            repair_bytes: 0,
        }
    }

    fn owner(&self, key: u64) -> NodeId {
        let slot = (key % self.ring.len() as u64) as usize;
        for step in 0..self.ring.len() {
            let n = self.ring[(slot + step) % self.ring.len()];
            if !self.failed.contains(&n) {
                return n;
            }
        }
        self.ring[slot]
    }

    fn overlay_route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut route = vec![from];
        if from == to {
            return route;
        }
        let start = self.ring.iter().position(|&n| n == from).unwrap();
        let mut i = start;
        loop {
            i = (i + 1) % self.ring.len();
            let n = self.ring[i];
            if n == to {
                route.push(n);
                return route;
            }
            if !self.failed.contains(&n) {
                route.push(n);
            }
        }
    }

    fn create_group(&mut self, name: &str, members: &[NodeId]) -> Result<GroupId, NetError> {
        if members.is_empty() {
            return Err(NetError::EmptyGroup);
        }
        for &m in members {
            if m.index() >= self.topology.len() {
                return Err(NetError::UnknownNode(m));
            }
            if self.failed.contains(&m) {
                return Err(NetError::NodeFailed(m));
            }
        }
        let id = GroupId::from_raw(hash_str(name));
        let root = self.owner(id.raw());
        let mut parent = HashMap::new();
        for &m in members {
            let route = self.overlay_route(m, root);
            for pair in route.windows(2) {
                if parent.contains_key(&pair[0]) || pair[0] == root {
                    break;
                }
                parent.insert(pair[0], pair[1]);
            }
        }
        self.groups.insert(
            id,
            RefGroup {
                root,
                members: members.to_vec(),
                parent,
                repaired: HashSet::new(),
            },
        );
        Ok(id)
    }

    fn group_root(&self, group: GroupId) -> Result<NodeId, NetError> {
        self.groups
            .get(&group)
            .map(|g| g.root)
            .ok_or(NetError::UnknownGroup(group))
    }

    fn remove_group(&mut self, group: GroupId) -> Result<(), NetError> {
        self.groups
            .remove(&group)
            .map(|_| ())
            .ok_or(NetError::UnknownGroup(group))
    }

    fn group_members(&self, group: GroupId) -> Result<&[NodeId], NetError> {
        self.groups
            .get(&group)
            .map(|g| g.members.as_slice())
            .ok_or(NetError::UnknownGroup(group))
    }

    fn join_group(&mut self, group: GroupId, node: NodeId) -> Result<(), NetError> {
        if node.index() >= self.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        if self.failed.contains(&node) {
            return Err(NetError::NodeFailed(node));
        }
        let root = self.group_root(group)?;
        if self.groups[&group].members.contains(&node) {
            return Ok(());
        }
        let route = self.overlay_route(node, root);
        let g = self.groups.get_mut(&group).unwrap();
        g.members.push(node);
        for pair in route.windows(2) {
            if g.parent.contains_key(&pair[0]) || pair[0] == root {
                break;
            }
            g.parent.insert(pair[0], pair[1]);
        }
        Ok(())
    }

    fn leave_group(&mut self, group: GroupId, node: NodeId) -> Result<(), NetError> {
        let g = self
            .groups
            .get_mut(&group)
            .ok_or(NetError::UnknownGroup(group))?;
        let Some(pos) = g.members.iter().position(|&m| m == node) else {
            return Err(NetError::NotAMember(node));
        };
        g.members.remove(pos);
        let mut needed: HashSet<NodeId> = HashSet::new();
        for &m in &g.members {
            let mut cur = m;
            while cur != g.root && needed.insert(cur) {
                cur = g.parent[&cur];
            }
        }
        g.parent.retain(|child, _| needed.contains(child));
        Ok(())
    }

    fn fail_node(&mut self, node: NodeId) -> Result<RepairReport, NetError> {
        if node.index() >= self.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        if !self.failed.insert(node) {
            return Err(NetError::NodeFailed(node));
        }
        let mut report = RepairReport::default();
        let mut ids: Vec<GroupId> = self.groups.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let mut g = self.groups.remove(&id).unwrap();
            self.repair_group(&mut g, node, &mut report);
            self.groups.insert(id, g);
        }
        self.repairs += (report.regrafts + report.reroots) as u64;
        self.repair_bytes += report.control_bytes;
        Ok(report)
    }

    fn recover_node(&mut self, node: NodeId) -> Result<bool, NetError> {
        if node.index() >= self.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        Ok(self.failed.remove(&node))
    }

    fn repair_group(&mut self, g: &mut RefGroup, failed: NodeId, report: &mut RepairReport) {
        if let Some(pos) = g.members.iter().position(|&m| m == failed) {
            g.members.remove(pos);
        }
        g.parent.remove(&failed);
        g.parent.retain(|_, parent| *parent != failed);
        g.repaired.retain(|&(p, c)| p != failed.0 && c != failed.0);
        if g.root == failed {
            report.reroots += 1;
            let slot = self.ring.iter().position(|&n| n == failed).unwrap();
            let mut new_root = g.root;
            for step in 1..=self.ring.len() {
                let n = self.ring[(slot + step) % self.ring.len()];
                if !self.failed.contains(&n) {
                    new_root = n;
                    break;
                }
            }
            g.root = new_root;
            g.parent.clear();
            g.repaired.clear();
            if new_root == failed {
                return;
            }
            for m in g.members.clone() {
                self.regraft(g, m, report);
            }
            return;
        }
        let mut orphans: BTreeSet<NodeId> = BTreeSet::new();
        for &m in &g.members {
            let mut cur = m;
            while cur != g.root {
                match g.parent.get(&cur) {
                    Some(&p) => cur = p,
                    None => {
                        orphans.insert(cur);
                        break;
                    }
                }
            }
        }
        for orphan in orphans {
            self.regraft(g, orphan, report);
        }
    }

    fn regraft(&mut self, g: &mut RefGroup, from: NodeId, report: &mut RepairReport) {
        let route = self.overlay_route(from, g.root);
        let header = self.config.header_bytes;
        for pair in route.windows(2) {
            if g.parent.contains_key(&pair[0]) || pair[0] == g.root {
                break;
            }
            g.parent.insert(pair[0], pair[1]);
            g.repaired.insert((pair[1].0, pair[0].0));
            if let Ok((_, bytes)) = self.transmit(pair[0], pair[1], header) {
                report.control_hops += 1;
                report.control_bytes += bytes;
            }
        }
        report.regrafts += 1;
        self.messages += 1;
    }

    fn multicast(
        &mut self,
        group: GroupId,
        src: NodeId,
        recipients: &[NodeId],
        payload_bytes: usize,
    ) -> Result<Delivery, NetError> {
        let saved = self.link_bytes.clone();
        let result = self.multicast_accounting_partially(group, src, recipients, payload_bytes);
        if result.is_err() {
            self.link_bytes = saved;
        }
        result
    }

    fn multicast_accounting_partially(
        &mut self,
        group: GroupId,
        src: NodeId,
        recipients: &[NodeId],
        payload_bytes: usize,
    ) -> Result<Delivery, NetError> {
        if self.failed.contains(&src) {
            return Err(NetError::NodeFailed(src));
        }
        let g = self
            .groups
            .get(&group)
            .ok_or(NetError::UnknownGroup(group))?;
        for r in recipients {
            if !g.members.contains(r) {
                return Err(NetError::NotAMember(*r));
            }
        }
        let root = g.root;
        let mut needed_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut repaired_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
        for &r in recipients {
            let mut cur = r;
            while cur != root {
                let p = g.parent[&cur];
                needed_edges.insert((p, cur));
                if g.repaired.contains(&(p.0, cur.0)) {
                    repaired_edges.insert((p, cur));
                }
                cur = p;
            }
        }
        let msg_bytes = payload_bytes + self.config.header_bytes;

        let mut bytes_on_wire = 0u64;
        let mut overlay_hops = 0usize;
        let mut root_arrival = Micros::ZERO;
        let src_route = self.overlay_route(src, root);
        for pair in src_route.windows(2) {
            let (lat, bytes) = self.transmit(pair[0], pair[1], msg_bytes)?;
            root_arrival += lat;
            bytes_on_wire += bytes;
            overlay_hops += 1;
        }

        let mut arrival: HashMap<NodeId, Micros> = HashMap::new();
        arrival.insert(root, root_arrival);
        let mut queue = VecDeque::from([root]);
        let mut edges_by_parent: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &(p, c) in &needed_edges {
            edges_by_parent.entry(p).or_default().push(c);
        }
        for v in edges_by_parent.values_mut() {
            v.sort_unstable();
        }
        let mut repair_bytes = 0u64;
        while let Some(u) = queue.pop_front() {
            let base = arrival[&u];
            if let Some(children) = edges_by_parent.get(&u).cloned() {
                for c in children {
                    let (lat, bytes) = self.transmit(u, c, msg_bytes)?;
                    bytes_on_wire += bytes;
                    overlay_hops += 1;
                    if repaired_edges.contains(&(u, c)) {
                        repair_bytes += bytes;
                    }
                    arrival.insert(c, base + lat);
                    queue.push_back(c);
                }
            }
        }

        let latencies: BTreeMap<NodeId, Micros> =
            recipients.iter().map(|&r| (r, arrival[&r])).collect();
        self.messages += 1;
        Ok(Delivery {
            latencies,
            bytes_on_wire,
            overlay_hops,
            repair_bytes,
        })
    }

    fn unicast(&mut self, from: NodeId, to: NodeId, payload: usize) -> Result<Delivery, NetError> {
        if self.failed.contains(&from) {
            return Err(NetError::NodeFailed(from));
        }
        if self.failed.contains(&to) {
            return Err(NetError::NodeFailed(to));
        }
        let (lat, bytes) = self.transmit(from, to, payload + self.config.header_bytes)?;
        self.messages += 1;
        Ok(Delivery {
            latencies: BTreeMap::from([(to, lat)]),
            bytes_on_wire: bytes,
            overlay_hops: 1,
            repair_bytes: 0,
        })
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> Result<(Micros, u64), NetError> {
        if from.index() >= self.topology.len() {
            return Err(NetError::UnknownNode(from));
        }
        let path = bfs_path(&self.topology, from, to).ok_or(NetError::Disconnected(from, to))?;
        let mut latency = self.config.software_delay;
        let mut total = 0u64;
        for pair in path.windows(2) {
            let link = self.topology.link(pair[0], pair[1]).unwrap();
            latency += link.transfer_time(bytes);
            let key = (pair[0].0.min(pair[1].0), pair[0].0.max(pair[1].0));
            *self.link_bytes.entry(key).or_insert(0) += bytes as u64;
            total += bytes as u64;
        }
        Ok((latency, total))
    }

    fn total_bytes(&self) -> u64 {
        self.link_bytes.values().sum()
    }

    fn max_link_bytes(&self) -> u64 {
        self.link_bytes.values().copied().max().unwrap_or(0)
    }

    fn link_loads(&self) -> Vec<(NodeId, NodeId, u64)> {
        let mut loads: Vec<(NodeId, NodeId, u64)> = self
            .link_bytes
            .iter()
            .map(|(&(a, b), &bytes)| (NodeId(a), NodeId(b), bytes))
            .collect();
        loads.sort_unstable();
        loads
    }

    fn reset_stats(&mut self) {
        self.link_bytes.clear();
        self.messages = 0;
    }
}

// ----------------------------------------------------------------------
// random scenarios
// ----------------------------------------------------------------------

/// SplitMix64 stream driving one scenario.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn node(&mut self, n: usize) -> NodeId {
        NodeId(self.below(n) as u32)
    }
}

fn random_spec(rng: &mut Rng) -> LinkSpec {
    const BANDWIDTHS: [u64; 4] = [1, 250_000, 1_000_000, 5_000_000];
    LinkSpec {
        bandwidth_bps: BANDWIDTHS[rng.below(BANDWIDTHS.len())],
        propagation: Micros(rng.below(3_000) as u64),
    }
}

/// A random topology of the given shape (0 ring, 1 star, 2 line, 3 grid,
/// 4 disconnected), with extra links of mixed specs.
fn random_topology(rng: &mut Rng, shape: usize) -> Topology {
    let (n, builder) = match shape {
        0..=2 => {
            let n = 2 + rng.below(11);
            let b = match shape {
                0 => Topology::ring(n),
                1 => Topology::star(n),
                _ => Topology::line(n),
            };
            (n, b)
        }
        3 => {
            let (w, h) = (1 + rng.below(6), 2 + rng.below(5));
            (w * h, Topology::grid(w, h))
        }
        _ => {
            // two islands, each a random tree, never linked together
            let n = 3 + rng.below(10);
            let split = 1 + rng.below(n - 1);
            let mut b = TopologyBuilder::with_nodes(n);
            for v in 1..n {
                let island = if v < split { 0..v } else { split..v };
                if !island.is_empty() {
                    let u = island.start + rng.below(island.len());
                    b = b.link(u, v, random_spec(rng));
                }
            }
            return b.build();
        }
    };
    let mut builder = builder
        .bandwidth_bps(random_spec(rng).bandwidth_bps)
        .propagation(Micros(rng.below(2_000) as u64));
    for _ in 0..rng.below(4) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            builder = builder.link(a, b, random_spec(rng));
        }
    }
    builder.build()
}

fn random_config(rng: &mut Rng) -> OverlayConfig {
    OverlayConfig {
        software_delay: Micros(rng.below(30_000) as u64),
        header_bytes: if rng.chance(4) { 0 } else { rng.below(100) },
    }
}

fn random_subset(rng: &mut Rng, nodes: &[NodeId]) -> Vec<NodeId> {
    nodes.iter().copied().filter(|_| rng.chance(2)).collect()
}

/// Asserts every observable counter agrees.
fn assert_same_state(
    overlay: &Overlay,
    reference: &RefOverlay,
    groups: &[GroupId],
    step: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(overlay.total_bytes(), reference.total_bytes(), "{}", step);
    prop_assert_eq!(
        overlay.max_link_bytes(),
        reference.max_link_bytes(),
        "{}",
        step
    );
    prop_assert_eq!(overlay.link_loads(), reference.link_loads(), "{}", step);
    prop_assert_eq!(overlay.messages(), reference.messages, "{}", step);
    prop_assert_eq!(overlay.repairs(), reference.repairs, "{}", step);
    prop_assert_eq!(overlay.repair_bytes(), reference.repair_bytes, "{}", step);
    prop_assert_eq!(
        overlay.failed_nodes().collect::<Vec<_>>(),
        reference.failed.iter().copied().collect::<Vec<_>>(),
        "{}",
        step
    );
    for &g in groups {
        prop_assert_eq!(overlay.group_root(g), reference.group_root(g), "{}", step);
        prop_assert_eq!(
            overlay.group_members(g),
            reference.group_members(g),
            "{}",
            step
        );
    }
    Ok(())
}

/// What the scenarios exercised, so a generator change that stops
/// reaching a path shows up as a failing test rather than a silent gap.
#[derive(Debug, Default)]
struct Coverage {
    delivered: usize,
    repaired_deliveries: usize,
    disconnected: usize,
    other_errors: usize,
    reroots: usize,
    regrafts: usize,
}

impl Coverage {
    fn send(&mut self, result: &Result<Delivery, NetError>) {
        match result {
            Ok(d) => {
                self.delivered += 1;
                self.repaired_deliveries += usize::from(d.repair_bytes > 0);
            }
            Err(NetError::Disconnected(..)) => self.disconnected += 1,
            Err(_) => self.other_errors += 1,
        }
    }
}

/// Runs one random scenario, comparing after every operation.
fn run_scenario(seed: u64, shape: usize, ops: usize) -> Result<(), TestCaseError> {
    run_scenario_counting(seed, shape, ops, &mut Coverage::default())
}

fn run_scenario_counting(
    seed: u64,
    shape: usize,
    ops: usize,
    coverage: &mut Coverage,
) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let topology = random_topology(&mut rng, shape);
    let config = random_config(&mut rng);
    let n = topology.len();
    let mut overlay = Overlay::with_config(topology.clone(), config);
    let mut reference = RefOverlay::new(topology, config);
    let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();

    let mut groups: Vec<GroupId> = Vec::new();
    for name in ["alpha", "beta", "gamma"].iter().take(1 + rng.below(3)) {
        let mut members = random_subset(&mut rng, &all);
        if members.is_empty() {
            members.push(rng.node(n));
        }
        let (a, b) = (
            overlay.create_group(name, &members),
            reference.create_group(name, &members),
        );
        prop_assert_eq!(&a, &b, "create_group({}, {:?})", name, members);
        groups.extend(a.ok());
    }
    // an id no overlay ever created
    let unknown = GroupId::from_raw(hash_str("never-created"));

    for op in 0..ops {
        let step;
        match rng.below(16) {
            0..=7 => {
                let group = if rng.chance(12) {
                    unknown
                } else {
                    groups[rng.below(groups.len())]
                };
                let src = match rng.below(4) {
                    0 => reference.group_root(group).unwrap_or(NodeId(0)),
                    1 => reference.failed.iter().next().copied().unwrap_or(NodeId(0)),
                    _ => rng.node(n),
                };
                let members = reference.group_members(group).unwrap_or(&[]).to_vec();
                let mut recipients = random_subset(&mut rng, &members);
                for i in (1..recipients.len()).rev() {
                    recipients.swap(i, rng.below(i + 1));
                }
                if rng.chance(8) {
                    recipients.push(rng.node(n));
                }
                if rng.chance(8) && !recipients.is_empty() {
                    recipients.push(recipients[0]);
                }
                let payload = if rng.chance(4) { 0 } else { rng.below(2_000) };
                step = format!("op {op}: multicast({group}, {src}, {recipients:?}, {payload})");
                let sent = overlay.multicast(group, src, &recipients, payload);
                coverage.send(&sent);
                prop_assert_eq!(
                    sent,
                    reference.multicast(group, src, &recipients, payload),
                    "{}",
                    step
                );
            }
            8 => {
                let (from, to) = (rng.node(n + 1), rng.node(n + 1));
                let payload = rng.below(500);
                step = format!("op {op}: unicast({from}, {to}, {payload})");
                prop_assert_eq!(
                    overlay.unicast(from, to, payload),
                    reference.unicast(from, to, payload),
                    "{}",
                    step
                );
            }
            9 | 10 => {
                let group = groups[rng.below(groups.len())];
                let node = rng.node(n + 1);
                step = format!("op {op}: join_group({group}, {node})");
                prop_assert_eq!(
                    overlay.join_group(group, node),
                    reference.join_group(group, node),
                    "{}",
                    step
                );
            }
            11 | 12 => {
                let group = groups[rng.below(groups.len())];
                let members = reference.group_members(group).unwrap_or(&[]).to_vec();
                let node = if !members.is_empty() && !rng.chance(4) {
                    members[rng.below(members.len())]
                } else {
                    rng.node(n)
                };
                step = format!("op {op}: leave_group({group}, {node})");
                prop_assert_eq!(
                    overlay.leave_group(group, node),
                    reference.leave_group(group, node),
                    "{}",
                    step
                );
            }
            13 => {
                let node = rng.node(n + 1);
                step = format!("op {op}: fail_node({node})");
                let report = overlay.fail_node(node);
                if let Ok(r) = &report {
                    coverage.reroots += r.reroots;
                    coverage.regrafts += r.regrafts;
                }
                prop_assert_eq!(report, reference.fail_node(node), "{}", step);
            }
            14 => {
                let node = match reference.failed.iter().next() {
                    Some(&f) if !rng.chance(4) => f,
                    _ => rng.node(n + 1),
                };
                step = format!("op {op}: recover_node({node})");
                prop_assert_eq!(
                    overlay.recover_node(node),
                    reference.recover_node(node),
                    "{}",
                    step
                );
            }
            _ => {
                if rng.chance(3) {
                    step = format!("op {op}: reset_stats");
                    overlay.reset_stats();
                    reference.reset_stats();
                } else {
                    // retire a group and re-create it over the live nodes
                    let i = rng.below(groups.len());
                    let group = groups[i];
                    step = format!("op {op}: remove_group({group}) + create_group");
                    prop_assert_eq!(
                        overlay.remove_group(group),
                        reference.remove_group(group),
                        "{}",
                        step
                    );
                    prop_assert_eq!(
                        overlay.remove_group(group),
                        reference.remove_group(group),
                        "{}",
                        step
                    );
                    let name = format!("re{op}");
                    let live: Vec<NodeId> = all
                        .iter()
                        .copied()
                        .filter(|m| !reference.failed.contains(m))
                        .collect();
                    let members = random_subset(&mut rng, &live);
                    let (a, b) = (
                        overlay.create_group(&name, &members),
                        reference.create_group(&name, &members),
                    );
                    prop_assert_eq!(&a, &b, "{}", step);
                    groups[i] = a.unwrap_or(group);
                }
            }
        }
        assert_same_state(&overlay, &reference, &groups, &step)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ring_overlays_agree(seed in 0u64..u64::MAX) {
        run_scenario(seed, 0, 60)?;
    }

    #[test]
    fn star_overlays_agree(seed in 0u64..u64::MAX) {
        run_scenario(seed, 1, 60)?;
    }

    #[test]
    fn line_overlays_agree(seed in 0u64..u64::MAX) {
        run_scenario(seed, 2, 60)?;
    }

    #[test]
    fn grid_overlays_agree(seed in 0u64..u64::MAX) {
        run_scenario(seed, 3, 60)?;
    }

    #[test]
    fn disconnected_overlays_agree(seed in 0u64..u64::MAX) {
        run_scenario(seed, 4, 60)?;
    }
}

#[test]
fn scenarios_reach_every_send_outcome() {
    let mut coverage = Coverage::default();
    for shape in 0..5 {
        for seed in 0..40 {
            run_scenario_counting(seed, shape, 60, &mut coverage).unwrap();
        }
    }
    assert!(coverage.delivered > 1_500, "{coverage:?}");
    assert!(coverage.repaired_deliveries > 200, "{coverage:?}");
    assert!(coverage.disconnected > 200, "{coverage:?}");
    assert!(coverage.other_errors > 500, "{coverage:?}");
    assert!(coverage.reroots > 50, "{coverage:?}");
    assert!(coverage.regrafts > 300, "{coverage:?}");
}

#[test]
fn zero_byte_sends_still_list_their_links() {
    // header 0 + payload 0: every crossed link appears in link_loads with
    // 0 bytes, in both implementations.
    let topology = Topology::grid(4, 3).build();
    let config = OverlayConfig {
        software_delay: Micros(7),
        header_bytes: 0,
    };
    let mut overlay = Overlay::with_config(topology.clone(), config);
    let mut reference = RefOverlay::new(topology, config);
    let members: Vec<NodeId> = (0..12).map(NodeId).collect();
    let g = overlay.create_group("zero", &members).unwrap();
    assert_eq!(reference.create_group("zero", &members), Ok(g));
    let d = overlay.multicast(g, NodeId(5), &members[..9], 0).unwrap();
    assert_eq!(
        reference.multicast(g, NodeId(5), &members[..9], 0),
        Ok(d.clone())
    );
    assert_eq!(d.bytes_on_wire, 0);
    let loads = overlay.link_loads();
    assert!(!loads.is_empty(), "zero-byte hops still touch links");
    assert!(loads.iter().all(|&(_, _, bytes)| bytes == 0));
    assert_eq!(loads, reference.link_loads());
    assert_eq!(overlay.total_bytes(), 0);
    assert_eq!(overlay.max_link_bytes(), 0);
}

#[test]
fn failed_send_accounts_nothing() {
    // Nodes 0-1-2 and 3-4 are islands; the ring route crosses between
    // them, so some overlay hop has no underlay path.
    let topology = TopologyBuilder::with_nodes(5)
        .link(0, 1, LinkSpec::default())
        .link(1, 2, LinkSpec::default())
        .link(3, 4, LinkSpec::default())
        .build();
    let mut overlay = Overlay::new(topology.clone());
    let mut reference = RefOverlay::new(topology, OverlayConfig::default());
    let members: Vec<NodeId> = (0..5).map(NodeId).collect();
    let g = overlay.create_group("islands", &members).unwrap();
    reference.create_group("islands", &members).unwrap();
    let mut failures = 0;
    for src in 0..5 {
        let a = overlay.multicast(g, NodeId(src), &members, 10);
        assert_eq!(a, reference.multicast(g, NodeId(src), &members, 10));
        if matches!(a, Err(NetError::Disconnected(..))) {
            failures += 1;
            assert_eq!(overlay.total_bytes(), reference.total_bytes());
            assert_eq!(overlay.link_loads(), reference.link_loads());
        }
    }
    assert_eq!(failures, 5, "every full-group send crosses the gap");
    assert_eq!(overlay.total_bytes(), 0);
    assert_eq!(overlay.messages(), 0);
}

#[test]
fn disconnected_siblings_report_the_lowest_child_first() {
    // Node 1 joins while 2 is down, so its uplink skips to 3; 2 recovers
    // and joins with uplink 3 too. Both edges out of 3 cross the gap
    // between islands {0, 1, 2} and {3, 4, 5}: the error names the edge
    // to the lower child, whatever order the recipients come in.
    let topology = TopologyBuilder::with_nodes(6)
        .link(0, 1, LinkSpec::default())
        .link(1, 2, LinkSpec::default())
        .link(3, 4, LinkSpec::default())
        .link(4, 5, LinkSpec::default())
        .build();
    let mut overlay = Overlay::new(topology.clone());
    let mut reference = RefOverlay::new(topology, OverlayConfig::default());
    overlay.fail_node(NodeId(2)).unwrap();
    reference.fail_node(NodeId(2)).unwrap();
    // a group key owned by ring slot 3 (group keys hash onto the ring)
    let name = (0..)
        .map(|i| format!("rooted-at-3-{i}"))
        .find(|name| hash_str(name) % 6 == 3)
        .unwrap();
    let g = overlay.create_group(&name, &[NodeId(1)]).unwrap();
    assert_eq!(reference.create_group(&name, &[NodeId(1)]), Ok(g));
    assert_eq!(overlay.group_root(g), Ok(NodeId(3)));
    overlay.recover_node(NodeId(2)).unwrap();
    overlay.join_group(g, NodeId(2)).unwrap();
    reference.recover_node(NodeId(2)).unwrap();
    reference.join_group(g, NodeId(2)).unwrap();
    for recipients in [[NodeId(1), NodeId(2)], [NodeId(2), NodeId(1)]] {
        let sent = overlay.multicast(g, NodeId(3), &recipients, 10);
        assert_eq!(sent, Err(NetError::Disconnected(NodeId(3), NodeId(1))));
        assert_eq!(sent, reference.multicast(g, NodeId(3), &recipients, 10));
    }
    assert_eq!(overlay.total_bytes(), 0);
}

#[test]
fn out_of_range_source_is_an_unknown_node() {
    let mut overlay = Overlay::new(Topology::ring(4).build());
    let g = overlay.create_group("g", &[NodeId(1), NodeId(2)]).unwrap();
    assert_eq!(
        overlay.multicast(g, NodeId(9), &[NodeId(1)], 10),
        Err(NetError::UnknownNode(NodeId(9)))
    );
    assert_eq!(overlay.total_bytes(), 0);
    assert_eq!(overlay.messages(), 0);
}
