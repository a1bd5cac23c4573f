//! The type index: type → nodes of that type, in document (PBN) order.
//!
//! §4.3: "there will usually be an index to quickly look up nodes of a
//! given type (e.g., find all the `<title>` elements). In these indexes ...
//! it is common to use the PBN number as a logical key." Range scans over a
//! type's PBN-sorted list are the access path both physical subtree queries
//! and the vPBN scan ranges (`vh_core::range`) use.

use vh_dataguide::{TypeId, TypedDocument};
use vh_pbn::Pbn;
use vh_xml::NodeId;

/// Per-type node lists, PBN-sorted.
#[derive(Clone, Debug, Default)]
pub struct TypeIndex {
    by_type: Vec<Vec<NodeId>>,
}

impl TypeIndex {
    /// Builds the index from a typed document.
    pub fn build(td: &TypedDocument) -> Self {
        let mut by_type: Vec<Vec<NodeId>> = vec![Vec::new(); td.guide().len()];
        // Document order = PBN order, so each list is born sorted.
        for &id in td.pbn().arena().nodes_in_order() {
            by_type[td.type_of(id).index()].push(id);
        }
        TypeIndex { by_type }
    }

    /// All nodes of `ty`, in document order.
    #[inline]
    pub fn nodes(&self, ty: TypeId) -> &[NodeId] {
        &self.by_type[ty.index()]
    }

    /// The nodes of `ty` whose numbers fall in `[lo, hi)`; `hi = None`
    /// means unbounded. Binary search on the sorted list.
    pub fn range<'a>(
        &'a self,
        td: &TypedDocument,
        ty: TypeId,
        lo: &Pbn,
        hi: Option<&Pbn>,
    ) -> &'a [NodeId] {
        let list = self.nodes(ty);
        let start = list.partition_point(|&id| td.pbn().pbn_of(id) < lo);
        let end = match hi {
            Some(hi) => list.partition_point(|&id| td.pbn().pbn_of(id) < hi),
            None => list.len(),
        };
        &list[start..end]
    }

    /// Number of types covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.by_type.len()
    }

    /// True when the index covers no types.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_type.is_empty()
    }

    /// Total entries across all types (= node count).
    pub fn entries(&self) -> usize {
        self.by_type.iter().map(Vec::len).sum()
    }

    /// Heap bytes used by the index (space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.by_type
            .iter()
            .map(|v| v.len() * std::mem::size_of::<NodeId>())
            .sum::<usize>()
            + self.by_type.len() * std::mem::size_of::<Vec<NodeId>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_pbn::pbn;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn per_type_lists_are_document_ordered() {
        let td = TypedDocument::analyze(paper_figure2());
        let idx = TypeIndex::build(&td);
        let title = td.guide().lookup_path(&["data", "book", "title"]).must();
        let titles = idx.nodes(title);
        assert_eq!(titles.len(), 2);
        assert_eq!(td.pbn().pbn_of(titles[0]), &pbn![1, 1, 1]);
        assert_eq!(td.pbn().pbn_of(titles[1]), &pbn![1, 2, 1]);
        assert_eq!(idx.entries(), td.doc().len());
    }

    #[test]
    fn range_scan_isolates_a_subtree() {
        let td = TypedDocument::analyze(paper_figure2());
        let idx = TypeIndex::build(&td);
        let title = td.guide().lookup_path(&["data", "book", "title"]).must();
        // Titles within book 1's subtree [1.1, 1.2).
        let r = idx.range(&td, title, &pbn![1, 1], Some(&pbn![1, 2]));
        assert_eq!(r.len(), 1);
        assert_eq!(td.pbn().pbn_of(r[0]), &pbn![1, 1, 1]);
        // Unbounded scan from 1.2.
        let r = idx.range(&td, title, &pbn![1, 2], None);
        assert_eq!(r.len(), 1);
        assert_eq!(td.pbn().pbn_of(r[0]), &pbn![1, 2, 1]);
    }
}
