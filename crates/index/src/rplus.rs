//! R+-tree-like multidimensional index over disjoint tile domains.
//!
//! §5: "an MDD object is composed of a set of multidimensional tiles and an
//! index on tiles … For each access to a multidimensional subinterval of
//! the object, the index returns the tiles intersected by the query region."
//!
//! Because a tiling's tiles are pairwise disjoint, the structure stays close
//! to the R+-tree of the paper's reference \[9\]: leaf entries never overlap,
//! and only directory rectangles may. The implementation is an arena-based
//! height-balanced tree with least-enlargement insertion, midpoint splits,
//! STR bulk loading, and node-visit accounting for the `t_ix` measurement.

use tilestore_geometry::Domain;
use tilestore_testkit::json::required;
use tilestore_testkit::json::Kind;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::error::{IndexError, Result};

/// Default maximum node fanout: entries of ~40 bytes on a 2 KiB directory
/// page give roughly this order.
pub const DEFAULT_FANOUT: usize = 32;

/// Result of a range search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Payloads of the entries intersecting the query region.
    pub hits: Vec<u64>,
    /// Number of index nodes visited — the basis of `t_ix`.
    pub nodes_visited: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct LeafEntry {
    domain: Domain,
    payload: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ChildEntry {
    mbr: Domain,
    node: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<ChildEntry>),
    /// Recycled slot.
    Free,
}

/// The R+-tree index.
#[derive(Debug, Clone, PartialEq)]
pub struct RPlusTree {
    dim: usize,
    fanout: usize,
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
}

impl ToJson for LeafEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("domain", self.domain.to_json()),
            ("payload", self.payload.to_json()),
        ])
    }
}

impl FromJson for LeafEntry {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut domain, mut payload) = (None, None);
        r.object(|r, key| match key {
            "domain" => r.field(&mut domain),
            "payload" => r.field(&mut payload),
            _ => r.skip(),
        })?;
        Ok(LeafEntry {
            domain: required(domain, "domain")?,
            payload: required(payload, "payload")?,
        })
    }
}

impl ToJson for ChildEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mbr", self.mbr.to_json()),
            ("node", self.node.to_json()),
        ])
    }
}

impl FromJson for ChildEntry {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut mbr, mut node) = (None, None);
        r.object(|r, key| match key {
            "mbr" => r.field(&mut mbr),
            "node" => r.field(&mut node),
            _ => r.skip(),
        })?;
        Ok(ChildEntry {
            mbr: required(mbr, "mbr")?,
            node: required(node, "node")?,
        })
    }
}

impl ToJson for Node {
    fn to_json(&self) -> Json {
        match self {
            Node::Leaf(entries) => Json::obj(vec![("leaf", entries.to_json())]),
            Node::Internal(children) => Json::obj(vec![("internal", children.to_json())]),
            Node::Free => Json::Str("free".to_string()),
        }
    }
}

impl FromJson for Node {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        if r.kind()? == Kind::Str {
            return match &*r.str()? {
                "free" => Ok(Node::Free),
                _ => Err(JsonError::msg("expected \"free\", leaf or internal node")),
            };
        }
        let (mut leaf, mut internal) = (None, None);
        r.object(|r, key| match key {
            "leaf" => r.field(&mut leaf),
            "internal" => r.field(&mut internal),
            _ => r.skip(),
        })?;
        match (leaf, internal) {
            (Some(entries), _) => Ok(Node::Leaf(entries)),
            (None, Some(children)) => Ok(Node::Internal(children)),
            (None, None) => Err(JsonError::msg("expected \"free\", leaf or internal node")),
        }
    }
}

impl ToJson for RPlusTree {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dim", self.dim.to_json()),
            ("fanout", self.fanout.to_json()),
            ("root", self.root.to_json()),
            ("len", self.len.to_json()),
            ("free", self.free.to_json()),
            ("nodes", self.nodes.to_json()),
        ])
    }
}

impl FromJson for RPlusTree {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut dim, mut fanout, mut root, mut len, mut free, mut nodes) =
            (None, None, None, None, None, None);
        r.object(|r, key| match key {
            "dim" => r.field(&mut dim),
            "fanout" => r.field(&mut fanout),
            "root" => r.field(&mut root),
            "len" => r.field(&mut len),
            "free" => r.field(&mut free),
            "nodes" => r.field(&mut nodes),
            _ => r.skip(),
        })?;
        Ok(RPlusTree {
            dim: required(dim, "dim")?,
            fanout: required(fanout, "fanout")?,
            root: required(root, "root")?,
            len: required(len, "len")?,
            free: required(free, "free")?,
            nodes: required(nodes, "nodes")?,
        })
    }
}

impl RPlusTree {
    /// An empty index for `dim`-dimensional entries with the default fanout.
    ///
    /// # Errors
    /// [`IndexError::BadFanout`] is never returned here; see
    /// [`RPlusTree::with_fanout`].
    pub fn new(dim: usize) -> Result<Self> {
        Self::with_fanout(dim, DEFAULT_FANOUT)
    }

    /// An empty index with an explicit maximum node fanout.
    ///
    /// # Errors
    /// [`IndexError::BadFanout`] when `fanout < 2`.
    pub fn with_fanout(dim: usize, fanout: usize) -> Result<Self> {
        if fanout < 2 {
            return Err(IndexError::BadFanout { fanout });
        }
        Ok(RPlusTree {
            dim,
            fanout,
            nodes: vec![Node::Leaf(Vec::new())],
            free: Vec::new(),
            root: 0,
            len: 0,
        })
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed domains.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height of the tree (1 for a single leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf(_) => return h,
                Node::Internal(children) => {
                    node = children.first().map_or(self.root, |c| c.node);
                    if children.is_empty() {
                        return h;
                    }
                    h += 1;
                }
                Node::Free => unreachable!("free node reached from root"),
            }
        }
    }

    /// Total number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn check_dim(&self, domain: &Domain) -> Result<()> {
        if domain.dim() != self.dim {
            return Err(IndexError::DimensionMismatch {
                index: self.dim,
                entry: domain.dim(),
            });
        }
        Ok(())
    }

    /// Inserts an entry mapping `domain` to `payload`.
    ///
    /// The caller (the storage engine) guarantees entry domains are pairwise
    /// disjoint; the index does not re-check on the hot path.
    ///
    /// # Errors
    /// [`IndexError::DimensionMismatch`] for a wrong-dimensional domain.
    pub fn insert(&mut self, domain: Domain, payload: u64) -> Result<()> {
        self.check_dim(&domain)?;
        if let Some((sib_mbr, sib_idx)) = self.insert_rec(self.root, domain, payload) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let old_mbr = self.node_mbr(old_root).expect("old root non-empty");
            let new_root = self.alloc(Node::Internal(vec![
                ChildEntry {
                    mbr: old_mbr,
                    node: old_root,
                },
                ChildEntry {
                    mbr: sib_mbr,
                    node: sib_idx,
                },
            ]));
            self.root = new_root;
        }
        self.len += 1;
        Ok(())
    }

    /// MBR of all entries below `node`; `None` for an empty node.
    fn node_mbr(&self, node: usize) -> Option<Domain> {
        match &self.nodes[node] {
            Node::Leaf(entries) => {
                let mut it = entries.iter();
                let first = it.next()?.domain.clone();
                Some(it.fold(first, |acc, e| {
                    acc.hull(&e.domain).expect("uniform dimensionality")
                }))
            }
            Node::Internal(children) => {
                let mut it = children.iter();
                let first = it.next()?.mbr.clone();
                Some(it.fold(first, |acc, c| {
                    acc.hull(&c.mbr).expect("uniform dimensionality")
                }))
            }
            Node::Free => None,
        }
    }

    /// Recursive insert; returns the (mbr, index) of a split-off sibling.
    fn insert_rec(&mut self, node: usize, domain: Domain, payload: u64) -> Option<(Domain, usize)> {
        match &mut self.nodes[node] {
            Node::Leaf(entries) => {
                entries.push(LeafEntry { domain, payload });
                if entries.len() > self.fanout {
                    return Some(self.split_leaf(node));
                }
                None
            }
            Node::Internal(children) => {
                debug_assert!(!children.is_empty(), "internal node without children");
                // Choose the child needing the least MBR enlargement;
                // tie-break on smaller resulting area (cell count).
                let mut best = 0usize;
                let mut best_growth = u64::MAX;
                let mut best_area = u64::MAX;
                for (i, c) in children.iter().enumerate() {
                    let hull = c.mbr.hull(&domain).expect("uniform dimensionality");
                    let area = hull.cell_count().unwrap_or(u64::MAX);
                    let old = c.mbr.cell_count().unwrap_or(u64::MAX);
                    let growth = area.saturating_sub(old);
                    if growth < best_growth || (growth == best_growth && area < best_area) {
                        best = i;
                        best_growth = growth;
                        best_area = area;
                    }
                }
                let child_idx = children[best].node;
                let new_mbr = children[best]
                    .mbr
                    .hull(&domain)
                    .expect("uniform dimensionality");
                children[best].mbr = new_mbr;
                let split = self.insert_rec(child_idx, domain, payload);
                if let Some((sib_mbr, sib_idx)) = split {
                    // Recompute the split child's MBR (it shrank) and add
                    // the sibling.
                    let shrunk = self.node_mbr(child_idx).expect("non-empty after split");
                    let Node::Internal(children) = &mut self.nodes[node] else {
                        unreachable!("node kind cannot change");
                    };
                    children[best].mbr = shrunk;
                    children.push(ChildEntry {
                        mbr: sib_mbr,
                        node: sib_idx,
                    });
                    if children.len() > self.fanout {
                        return Some(self.split_internal(node));
                    }
                }
                None
            }
            Node::Free => unreachable!("insert into free node"),
        }
    }

    /// Axis with the widest spread of entry centers — the split axis.
    fn widest_axis(centers: &[Vec<i64>]) -> usize {
        let dim = centers.first().map_or(0, Vec::len);
        (0..dim)
            .max_by_key(|&a| {
                let min = centers.iter().map(|c| c[a]).min().unwrap_or(0);
                let max = centers.iter().map(|c| c[a]).max().unwrap_or(0);
                max.abs_diff(min)
            })
            .unwrap_or(0)
    }

    fn split_leaf(&mut self, node: usize) -> (Domain, usize) {
        let Node::Leaf(entries) = &mut self.nodes[node] else {
            unreachable!("split_leaf on non-leaf");
        };
        let mut entries = std::mem::take(entries);
        let centers: Vec<Vec<i64>> = entries
            .iter()
            .map(|e| {
                (0..e.domain.dim())
                    .map(|a| e.domain.lo(a) / 2 + e.domain.hi(a) / 2)
                    .collect()
            })
            .collect();
        let axis = Self::widest_axis(&centers);
        entries.sort_by_key(|e| (e.domain.lo(axis), e.domain.hi(axis)));
        let right = entries.split_off(entries.len() / 2);
        self.nodes[node] = Node::Leaf(entries);
        let sib = self.alloc(Node::Leaf(right));
        let mbr = self.node_mbr(sib).expect("split halves are non-empty");
        (mbr, sib)
    }

    fn split_internal(&mut self, node: usize) -> (Domain, usize) {
        let Node::Internal(children) = &mut self.nodes[node] else {
            unreachable!("split_internal on non-internal");
        };
        let mut children = std::mem::take(children);
        let centers: Vec<Vec<i64>> = children
            .iter()
            .map(|c| {
                (0..c.mbr.dim())
                    .map(|a| c.mbr.lo(a) / 2 + c.mbr.hi(a) / 2)
                    .collect()
            })
            .collect();
        let axis = Self::widest_axis(&centers);
        children.sort_by_key(|c| (c.mbr.lo(axis), c.mbr.hi(axis)));
        let right = children.split_off(children.len() / 2);
        self.nodes[node] = Node::Internal(children);
        let sib = self.alloc(Node::Internal(right));
        let mbr = self.node_mbr(sib).expect("split halves are non-empty");
        (mbr, sib)
    }

    /// Returns the payloads of all entries intersecting `region`, plus the
    /// number of nodes visited.
    #[must_use]
    pub fn search(&self, region: &Domain) -> SearchResult {
        let mut hits = Vec::new();
        let mut visited = 0u64;
        self.search_rec(self.root, region, &mut hits, &mut visited);
        tilestore_obs::hot().index_nodes.record(visited);
        tilestore_obs::tracer().event("index_search", || {
            format!("region={region} nodes={visited} hits={}", hits.len())
        });
        SearchResult {
            hits,
            nodes_visited: visited,
        }
    }

    fn search_rec(&self, node: usize, region: &Domain, hits: &mut Vec<u64>, visited: &mut u64) {
        *visited += 1;
        match &self.nodes[node] {
            Node::Leaf(entries) => {
                for e in entries {
                    if e.domain.intersects(region) {
                        hits.push(e.payload);
                    }
                }
            }
            Node::Internal(children) => {
                for c in children {
                    if c.mbr.intersects(region) {
                        self.search_rec(c.node, region, hits, visited);
                    }
                }
            }
            Node::Free => unreachable!("search reached free node"),
        }
    }

    /// Visits every entry in the index.
    pub fn for_each<F: FnMut(&Domain, u64)>(&self, mut f: F) {
        self.for_each_rec(self.root, &mut f);
    }

    fn for_each_rec<F: FnMut(&Domain, u64)>(&self, node: usize, f: &mut F) {
        match &self.nodes[node] {
            Node::Leaf(entries) => {
                for e in entries {
                    f(&e.domain, e.payload);
                }
            }
            Node::Internal(children) => {
                for c in children {
                    self.for_each_rec(c.node, f);
                }
            }
            Node::Free => unreachable!("traversal reached free node"),
        }
    }

    /// Removes the entry with exactly this `domain` and `payload`.
    /// Returns whether an entry was removed.
    ///
    /// Empty nodes are pruned; no entry re-insertion is performed (tilings
    /// are replaced wholesale on re-tiling, so fine-grained rebalancing
    /// after deletes is not on the hot path).
    pub fn remove(&mut self, domain: &Domain, payload: u64) -> bool {
        if domain.dim() != self.dim {
            return false;
        }
        let removed = self.remove_rec(self.root, domain, payload);
        if removed {
            self.len -= 1;
            // Collapse a root with a single internal child.
            while let Node::Internal(children) = &self.nodes[self.root] {
                if children.len() == 1 {
                    let only = children[0].node;
                    let old_root = self.root;
                    self.nodes[old_root] = Node::Free;
                    self.free.push(old_root);
                    self.root = only;
                } else {
                    break;
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, node: usize, domain: &Domain, payload: u64) -> bool {
        match &mut self.nodes[node] {
            Node::Leaf(entries) => {
                let before = entries.len();
                entries.retain(|e| !(e.payload == payload && &e.domain == domain));
                entries.len() != before
            }
            Node::Internal(children) => {
                let candidates: Vec<(usize, usize)> = children
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.mbr.contains_domain(domain))
                    .map(|(i, c)| (i, c.node))
                    .collect();
                for (i, child) in candidates {
                    if self.remove_rec(child, domain, payload) {
                        match self.node_mbr(child) {
                            Some(mbr) => {
                                let Node::Internal(children) = &mut self.nodes[node] else {
                                    unreachable!("node kind cannot change");
                                };
                                children[i].mbr = mbr;
                            }
                            None => {
                                self.nodes[child] = Node::Free;
                                self.free.push(child);
                                let Node::Internal(children) = &mut self.nodes[node] else {
                                    unreachable!("node kind cannot change");
                                };
                                children.remove(i);
                            }
                        }
                        return true;
                    }
                }
                false
            }
            Node::Free => false,
        }
    }

    /// Bulk-loads entries with sort-tile-recursive packing: entries are
    /// sorted by their lowest corner (row-major point order) and packed into
    /// full leaves, then directory levels are packed the same way. Produces
    /// a compact tree with fully-packed nodes — preferable to repeated
    /// [`RPlusTree::insert`] when loading a whole tiling.
    ///
    /// # Errors
    /// [`IndexError::DimensionMismatch`] or [`IndexError::BadFanout`].
    pub fn bulk_load(dim: usize, fanout: usize, mut entries: Vec<(Domain, u64)>) -> Result<Self> {
        let mut tree = Self::with_fanout(dim, fanout)?;
        for (d, _) in &entries {
            tree.check_dim(d)?;
        }
        if entries.is_empty() {
            return Ok(tree);
        }
        tree.len = entries.len();
        entries.sort_by_key(|a| a.0.lowest());
        // Build leaves.
        tree.nodes.clear();
        tree.free.clear();
        let mut level: Vec<ChildEntry> = entries
            .chunks(fanout)
            .map(|chunk| {
                let leaf: Vec<LeafEntry> = chunk
                    .iter()
                    .map(|(d, p)| LeafEntry {
                        domain: d.clone(),
                        payload: *p,
                    })
                    .collect();
                let mbr = leaf.iter().skip(1).fold(leaf[0].domain.clone(), |acc, e| {
                    acc.hull(&e.domain).expect("uniform dimensionality")
                });
                tree.nodes.push(Node::Leaf(leaf));
                ChildEntry {
                    mbr,
                    node: tree.nodes.len() - 1,
                }
            })
            .collect();
        // Pack directory levels until a single root remains.
        while level.len() > 1 {
            level = level
                .chunks(fanout)
                .map(|chunk| {
                    let children = chunk.to_vec();
                    let mbr = children
                        .iter()
                        .skip(1)
                        .fold(children[0].mbr.clone(), |acc, c| {
                            acc.hull(&c.mbr).expect("uniform dimensionality")
                        });
                    tree.nodes.push(Node::Internal(children));
                    ChildEntry {
                        mbr,
                        node: tree.nodes.len() - 1,
                    }
                })
                .collect();
        }
        tree.root = level[0].node;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    /// A 10x10 grid of 10x10 tiles over [0:99,0:99].
    fn grid_entries() -> Vec<(Domain, u64)> {
        let mut v = Vec::new();
        let mut id = 0u64;
        for i in 0..10 {
            for j in 0..10 {
                let dom =
                    Domain::from_bounds(&[(i * 10, i * 10 + 9), (j * 10, j * 10 + 9)]).unwrap();
                v.push((dom, id));
                id += 1;
            }
        }
        v
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = RPlusTree::with_fanout(2, 4).unwrap();
        for (dom, id) in grid_entries() {
            t.insert(dom, id).unwrap();
        }
        assert_eq!(t.len(), 100);
        let r = t.search(&d("[15:24,15:24]"));
        let mut hits = r.hits;
        hits.sort_unstable();
        assert_eq!(hits, vec![11, 12, 21, 22]);
        assert!(r.nodes_visited >= 2);
    }

    #[test]
    fn search_matches_linear_scan() {
        let entries = grid_entries();
        let mut t = RPlusTree::with_fanout(2, 4).unwrap();
        for (dom, id) in entries.clone() {
            t.insert(dom, id).unwrap();
        }
        for q in ["[0:0,0:0]", "[0:99,0:99]", "[37:61,2:98]", "[95:99,95:99]"] {
            let q = d(q);
            let mut fast = t.search(&q).hits;
            fast.sort_unstable();
            let mut slow: Vec<u64> = entries
                .iter()
                .filter(|(dom, _)| dom.intersects(&q))
                .map(|&(_, id)| id)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow, "query {q}");
        }
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let entries = grid_entries();
        let bulk = RPlusTree::bulk_load(2, 8, entries.clone()).unwrap();
        assert_eq!(bulk.len(), 100);
        let q = d("[5:15,5:15]");
        let mut hits = bulk.search(&q).hits;
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1, 10, 11]);
        // Bulk-loaded tree is packed: node count near minimum.
        assert!(
            bulk.node_count() <= 13 + 2 + 1,
            "nodes: {}",
            bulk.node_count()
        );
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = RPlusTree::bulk_load(2, 4, grid_entries()).unwrap();
        // 100 entries at fanout 4: 25 leaves, 7 internals, 2 uppers, 1 root.
        assert!(t.height() >= 3);
        let mut count = 0;
        t.for_each(|_, _| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    fn remove_deletes_exactly_one_entry() {
        let mut t = RPlusTree::with_fanout(2, 4).unwrap();
        for (dom, id) in grid_entries() {
            t.insert(dom, id).unwrap();
        }
        let victim = d("[10:19,10:19]");
        assert!(t.remove(&victim, 11));
        assert!(!t.remove(&victim, 11), "double delete must fail");
        assert_eq!(t.len(), 99);
        let hits = t.search(&victim).hits;
        assert!(!hits.contains(&11));
    }

    #[test]
    fn remove_all_then_reuse() {
        let mut t = RPlusTree::with_fanout(2, 4).unwrap();
        let entries = grid_entries();
        for (dom, id) in entries.clone() {
            t.insert(dom, id).unwrap();
        }
        for (dom, id) in &entries {
            assert!(t.remove(dom, *id));
        }
        assert!(t.is_empty());
        // The tree is usable after full removal.
        t.insert(d("[0:4,0:4]"), 500).unwrap();
        assert_eq!(t.search(&d("[0:99,0:99]")).hits, vec![500]);
    }

    #[test]
    fn dimension_checks() {
        let mut t = RPlusTree::new(2).unwrap();
        assert!(matches!(
            t.insert(d("[0:1]"), 0),
            Err(IndexError::DimensionMismatch { index: 2, entry: 1 })
        ));
        assert!(RPlusTree::with_fanout(2, 1).is_err());
        assert!(!t.remove(&d("[0:1]"), 0));
    }

    #[test]
    fn json_round_trip() {
        let t = RPlusTree::bulk_load(2, 4, grid_entries()).unwrap();
        let json = tilestore_testkit::json::to_string(&t);
        let back: RPlusTree = tilestore_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.search(&d("[0:9,0:9]")).hits, vec![0]);
    }

    #[test]
    fn json_round_trip_preserves_free_slots() {
        let mut t = RPlusTree::with_fanout(2, 4).unwrap();
        for (dom, id) in grid_entries() {
            t.insert(dom, id).unwrap();
        }
        for (dom, id) in grid_entries().iter().take(90) {
            assert!(t.remove(dom, *id));
        }
        let json = tilestore_testkit::json::to_string(&t);
        let back: RPlusTree = tilestore_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tree_search() {
        let t = RPlusTree::new(3).unwrap();
        let r = t.search(&d("[0:1,0:1,0:1]"));
        assert!(r.hits.is_empty());
        assert_eq!(r.nodes_visited, 1);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn nodes_visited_less_than_linear_for_point_query() {
        let entries = grid_entries();
        let t = RPlusTree::bulk_load(2, 4, entries).unwrap();
        let r = t.search(&d("[55:55,55:55]"));
        assert_eq!(r.hits.len(), 1);
        assert!(
            r.nodes_visited < 15,
            "point query visited {} nodes",
            r.nodes_visited
        );
    }
}
