//! Incremental construction of [`Graph`] values.
//!
//! [`GraphBuilder::build`] turns the collected edge list into CSR form in
//! O(n + m) time with no comparison sort, in two scatter passes:
//!
//! 1. Count every vertex's listed degree and lay the rows out by prefix
//!    sums, then scatter each listed edge into both endpoints' rows of a
//!    scratch table, in input order. The scratch holds `u32` ids whenever
//!    every id fits one. The edge list is dropped after this pass.
//! 2. Walk the vertices in ascending id and append each to the final row
//!    of every neighbour its scratch row names. Every row then comes out
//!    in ascending order, and the copies of a repeated edge arrive back to
//!    back, so the append drops them on the spot; one compaction sweep
//!    closes the gaps they leave, and only if there were any.
//!
//! Peak transient memory is 24 bytes per listed edge: the 16-byte pairs
//! beside the 8-byte scratch in the first pass, the scratch beside the
//! 16-byte final rows in the second (32 where the scratch holds `usize`
//! ids). The O(n) tables are reserved fallibly, so the edge-list loader
//! can turn a header whose tables cannot be had into a typed error (see
//! [`crate::io`]).

use std::collections::TryReserveError;

use crate::{Graph, GraphError, VertexId};

/// Incremental builder for [`Graph`].
///
/// Collects edges in any orientation, repeats allowed, then produces the
/// immutable CSR form with [`GraphBuilder::build`], which folds each
/// repeated edge into one.
///
/// # Example
///
/// ```
/// use netdecomp_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 1)?; // duplicate, ignored
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), netdecomp_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on vertices `0..n`.
    ///
    /// Any `n` whose tables can be allocated builds, but the decomposition
    /// indexes vertices as `u32`: its phase loop panics on a graph of
    /// more than `u32::MAX` vertices, and [`crate::io::from_edge_list`]
    /// refuses such a header as a [`GraphError::Parse`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `m` edges.
    #[must_use]
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices this builder was created with.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Records the undirected edge `{u, v}`.
    ///
    /// Duplicates are allowed here and collapsed by [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`;
    /// [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.edges.push((u, v));
        Ok(self)
    }

    /// Consumes the builder and produces the immutable CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if the O(n) tables of `n` vertices cannot be allocated.
    #[must_use]
    pub fn build(self) -> Graph {
        let n = self.n;
        self.try_build()
            .unwrap_or_else(|e| panic!("cannot allocate the tables of {n} vertices: {e}"))
    }

    /// [`GraphBuilder::build`], with an error in place of the panic.
    pub(crate) fn try_build(self) -> Result<Graph, TryReserveError> {
        if u32::try_from(self.n.saturating_sub(1)).is_ok() {
            csr::<u32>(self.n, self.edges)
        } else {
            csr::<VertexId>(self.n, self.edges)
        }
    }
}

/// A vertex id as a scatter pass stores it.
trait ScratchId: Copy + Default {
    fn narrow(v: VertexId) -> Self;
    fn widen(self) -> VertexId;
}

impl ScratchId for u32 {
    #[inline]
    fn narrow(v: VertexId) -> Self {
        v as u32
    }

    #[inline]
    fn widen(self) -> VertexId {
        self as VertexId
    }
}

impl ScratchId for VertexId {
    #[inline]
    fn narrow(v: VertexId) -> Self {
        v
    }

    #[inline]
    fn widen(self) -> VertexId {
        self
    }
}

/// The build of the module docs over ids below `n`, each of which `S`
/// must hold.
fn csr<S: ScratchId>(n: usize, edges: Vec<(VertexId, VertexId)>) -> Result<Graph, TryReserveError> {
    // `cursor` counts degrees, then walks each row from its end down to its
    // start in the first pass and back up in the second.
    let mut cursor: Vec<usize> = Vec::new();
    cursor.try_reserve_exact(n)?;
    cursor.resize(n, 0);
    for &(u, v) in &edges {
        cursor[u] += 1;
        cursor[v] += 1;
    }
    // `cursor` holding `n` words bounds `n` far below `usize::MAX`.
    let mut offsets: Vec<usize> = Vec::new();
    offsets.try_reserve_exact(n + 1)?;
    offsets.push(0);
    let mut end = 0;
    for c in &mut cursor {
        end += *c;
        offsets.push(end);
        *c = end;
    }

    let mut scratch = vec![S::default(); end];
    for &(u, v) in &edges {
        cursor[u] -= 1;
        scratch[cursor[u]] = S::narrow(v);
        cursor[v] -= 1;
        scratch[cursor[v]] = S::narrow(u);
    }
    drop(edges);

    let mut targets = vec![0 as VertexId; end];
    let mut repeats = 0usize;
    for u in 0..n {
        for &v in &scratch[offsets[u]..offsets[u + 1]] {
            let v = v.widen();
            let at = cursor[v];
            // Row `v` receives its entries in ascending order, so a repeat
            // of `u` is the entry just appended, if row `v` has one. The
            // row's start, a second random read, is checked last.
            if at > 0 && targets[at - 1] == u && at > offsets[v] {
                repeats += 1;
                continue;
            }
            targets[at] = u;
            cursor[v] = at + 1;
        }
    }
    drop(scratch);

    if repeats > 0 {
        let mut end = 0;
        for v in 0..n {
            let (start, filled) = (offsets[v], cursor[v]);
            targets.copy_within(start..filled, end);
            offsets[v] = end;
            end += filled - start;
        }
        offsets[n] = end;
        targets.truncate(end);
        targets.shrink_to_fit();
    }
    Ok(Graph::from_csr_parts(offsets, targets))
}

#[cfg(test)]
impl GraphBuilder {
    /// The sort-based build the two-pass build replaced: sort and dedup the
    /// oriented pair list, fill the rows, then sort every row.
    pub(crate) fn build_by_sorting(mut self) -> Graph {
        for e in &mut self.edges {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut degrees = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degrees[u] += 1;
            degrees[v] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        for v in 0..self.n {
            offsets.push(offsets[v] + degrees[v]);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            targets[cursor[u]] = v;
            cursor[u] += 1;
            targets[cursor[v]] = u;
            cursor[v] += 1;
        }
        for v in 0..self.n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph::from_csr_parts(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tables of 2^61 vertices exceed `isize::MAX` bytes, so the build
    /// reports the failed reservation without asking the allocator.
    #[test]
    fn tables_that_cannot_be_had_are_an_error_not_an_abort() {
        assert!(GraphBuilder::new(1 << 61).try_build().is_err());
    }

    #[test]
    fn builder_normalizes_orientation_and_dedups() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).unwrap();
        b.add_edge(0, 3).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(0), &[3]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn builder_chains() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        assert_eq!(b.build().edge_count(), 2);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new(6);
        for v in [5, 1, 3, 2, 4] {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_vertex_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
    }

    #[test]
    fn with_edge_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_edge_capacity(3, 8);
        b.add_edge(0, 2).unwrap();
        assert_eq!(b.vertex_count(), 3);
        assert_eq!(b.build().edge_count(), 1);
    }

    /// An edge list over `n ∈ 0..24` vertices (`0` often), up to `2n²`
    /// draws of a pair in either orientation, so that repeats and isolated
    /// vertices are both common; a third of the lists are sorted, as
    /// `io::to_edge_list` writes them, and one in six of all lists also
    /// deduplicated, so that the build meets lists with no repeat.
    fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (0usize..28, 0usize..6).prop_flat_map(|(k, order)| {
            let n = k.saturating_sub(4);
            let ids = 0..n.max(1);
            proptest::collection::vec((ids.clone(), ids), 0..2 * n * n + 1).prop_map(move |pairs| {
                let mut edges: Vec<(usize, usize)> =
                    pairs.into_iter().filter(|&(u, v)| u != v).collect();
                if order < 2 {
                    edges.sort_unstable_by_key(|&(u, v)| (u.min(v), u.max(v)));
                }
                if order == 0 {
                    edges.dedup_by_key(|&mut (u, v)| (u.min(v), u.max(v)));
                }
                (n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn two_pass_build_equals_the_sort_based_build((n, edges) in arb_edge_list()) {
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.add_edge(u, v).unwrap();
            }
            let want = b.clone().build_by_sorting();
            prop_assert_eq!(&csr::<VertexId>(n, edges).unwrap(), &want);
            prop_assert_eq!(b.build(), want);
        }
    }
}
