//! A small disjoint-set (union-find) structure.
//!
//! Coalescing is a sequence of vertex merges; a [`DisjointSets`] instance
//! tracks, for every *original* variable, which representative it has been
//! merged into, so that the final coalescing map `f` of the paper can be
//! recovered after any sequence of merges.

/// Disjoint-set forest with union by rank and path compression.
///
/// ```
/// use coalesce_graph::DisjointSets;
/// let mut dsu = DisjointSets::new(4);
/// dsu.union(0, 1);
/// dsu.union(2, 3);
/// assert!(dsu.same_set(0, 1));
/// assert!(!dsu.same_set(1, 2));
/// assert_eq!(dsu.num_sets(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets `{0}, {1}, ..., {n-1}`.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure contains no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Adds a fresh singleton and returns its index.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i);
        self.rank.push(0);
        self.num_sets += 1;
        i
    }

    /// Finds the representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Finds the representative of `x`'s set without mutating the structure.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merges the sets of `a` and `b`.  Returns the representative of the
    /// merged set, or `None` if they were already in the same set.
    pub fn union(&mut self, a: usize, b: usize) -> Option<usize> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        self.num_sets -= 1;
        let root = if self.rank[ra] < self.rank[rb] {
            self.parent[ra] = rb;
            rb
        } else if self.rank[ra] > self.rank[rb] {
            self.parent[rb] = ra;
            ra
        } else {
            self.parent[rb] = ra;
            self.rank[ra] += 1;
            ra
        };
        Some(root)
    }

    /// Merges the set of `from` into the set of `into`, forcing the
    /// representative of `into`'s set to stay the representative.
    ///
    /// This is useful when an external structure (e.g. a [`crate::Graph`]
    /// after [`crate::Graph::merge`]) has already decided which identifier
    /// survives.
    pub fn union_into(&mut self, into: usize, from: usize) -> bool {
        let (ri, rf) = (self.find(into), self.find(from));
        if ri == rf {
            return false;
        }
        self.parent[rf] = ri;
        self.rank[ri] = self.rank[ri].max(self.rank[rf].saturating_add(1));
        self.num_sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups elements by set; each group is sorted, groups are sorted by
    /// their smallest element.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        use std::collections::BTreeMap;
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for x in 0..self.len() {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut d = DisjointSets::new(3);
        assert_eq!(d.num_sets(), 3);
        assert!(!d.same_set(0, 1));
        assert_eq!(d.find(2), 2);
    }

    #[test]
    fn union_reduces_set_count() {
        let mut d = DisjointSets::new(4);
        assert!(d.union(0, 1).is_some());
        assert!(d.union(0, 1).is_none());
        assert_eq!(d.num_sets(), 3);
    }

    #[test]
    fn transitive_union() {
        let mut d = DisjointSets::new(5);
        d.union(0, 1);
        d.union(1, 2);
        d.union(3, 4);
        assert!(d.same_set(0, 2));
        assert!(!d.same_set(2, 3));
        assert_eq!(d.num_sets(), 2);
    }

    #[test]
    fn union_into_keeps_target_representative() {
        let mut d = DisjointSets::new(4);
        d.union_into(2, 0);
        d.union_into(2, 1);
        assert_eq!(d.find(0), 2);
        assert_eq!(d.find(1), 2);
    }

    #[test]
    fn groups_are_sorted() {
        let mut d = DisjointSets::new(5);
        d.union(4, 1);
        d.union(3, 0);
        let groups = d.groups();
        assert_eq!(groups, vec![vec![0, 3], vec![1, 4], vec![2]]);
    }

    #[test]
    fn push_adds_singleton() {
        let mut d = DisjointSets::new(1);
        let x = d.push();
        assert_eq!(x, 1);
        assert_eq!(d.num_sets(), 2);
        assert!(!d.same_set(0, 1));
    }
}
