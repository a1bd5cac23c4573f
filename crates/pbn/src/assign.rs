//! Assigning PBN numbers to every node of a document.
//!
//! The assignment is the bridge between the tree model (`vh-xml`) and the
//! numbering space: `by_node` maps a [`NodeId`] to its number in O(1), and
//! the document-order byte [`PbnArena`] answers the reverse lookup in
//! O(log n). Comments and processing instructions are numbered like any
//! other child, exactly as a PBN-based DBMS would.

use crate::arena::{ArenaFormatError, PbnArena};
use crate::encode::EncodedPbn;
use crate::number::Pbn;
use vh_xml::{Document, NodeId};

/// The PBN numbering of a document.
///
/// After construction the assignment is **mutable** and always fresh:
/// every edit splices the byte [`PbnArena`] in place — a subtree's keys
/// are contiguous in document order, so an insert or a removal is one
/// splice — and no key outside the edited subtree is re-encoded.
#[derive(Clone, Debug)]
pub struct PbnAssignment {
    /// `by_node[id.index()]` is the number of node `id`.
    by_node: Vec<Pbn>,
    /// Columnar encoded-key form of the numbering, in document order.
    arena: PbnArena,
}

impl PbnAssignment {
    /// Numbers every node of `doc` (root = `1`, k-th child appends `.k`).
    pub fn assign(doc: &Document) -> Self {
        let mut by_node = vec![Pbn::empty(); doc.len()];
        let mut in_order = Vec::with_capacity(doc.len());
        if let Some(root) = doc.root() {
            // Iterative preorder carrying the parent's number: children are
            // pushed in reverse, so nodes pop in document order. `by_node`
            // owns the only copy of each number: freeing a second per-node
            // copy after setup leaves heap holes that later allocations
            // scatter into, which slowed queries after edits by ~15% in
            // vbench's edit-churn workload.
            let mut stack: Vec<(NodeId, Pbn)> = vec![(root, Pbn::root())];
            while let Some((id, num)) = stack.pop() {
                for (i, &c) in doc.children(id).iter().enumerate().rev() {
                    stack.push((c, num.child(i as u32 + 1)));
                }
                by_node[id.index()] = num;
                in_order.push(id);
            }
        }
        let pairs = in_order.iter().map(|&id| (&by_node[id.index()], id));
        let arena = PbnArena::build(pairs, by_node.len());
        PbnAssignment { by_node, arena }
    }

    /// Rebuilds an assignment around an arena loaded from storage, decoding
    /// numbers from the keys instead of renumbering the document. The
    /// arena must come from [`PbnArena::from_parts`] (validated) and cover
    /// an id space of at least `id_space` entries. A key that does not
    /// decode as a well-formed component sequence is rejected with the
    /// codec's failure code.
    pub fn from_arena(arena: PbnArena, id_space: usize) -> Result<Self, ArenaFormatError> {
        let mut by_node = vec![Pbn::empty(); id_space];
        for slot in 0..arena.len() {
            let pbn = EncodedPbn::from_bytes(arena.key_at_slot(slot).to_vec())
                .map_err(|e| ArenaFormatError(format!("key at slot {slot}: [{}] {e}", e.code())))?
                .decode();
            if let Some(cell) = by_node.get_mut(arena.node_at_slot(slot).index()) {
                *cell = pbn;
            }
        }
        Ok(PbnAssignment { by_node, arena })
    }

    /// The columnar encoded-key arena of this numbering.
    #[inline]
    pub fn arena(&self) -> &PbnArena {
        &self.arena
    }

    /// The encoded byte key of a node — empty for ids outside the
    /// assignment. Borrowed from the arena; zero allocation.
    #[inline]
    pub fn key_of(&self, id: NodeId) -> &[u8] {
        self.arena.key_of(id)
    }

    /// The number of a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to the assigned document.
    #[inline]
    pub fn pbn_of(&self, id: NodeId) -> &Pbn {
        &self.by_node[id.index()]
    }

    /// The raw per-node entry, or `None` for ids past the end of this
    /// assignment (nodes created after it was built). Unreachable nodes
    /// keep the empty number.
    #[inline]
    pub fn by_node_checked(&self, id: NodeId) -> Option<&Pbn> {
        self.by_node.get(id.index())
    }

    /// The node with the given number, if any: a lower bound on its
    /// encoded key.
    pub fn node_of(&self, pbn: &Pbn) -> Option<NodeId> {
        let key = EncodedPbn::encode(pbn);
        let slot = self.arena.lower_bound(key.as_bytes());
        (slot < self.arena.len() && self.arena.key_at_slot(slot) == key.as_bytes())
            .then(|| self.arena.node_at_slot(slot))
    }

    /// Number of assigned nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if no nodes were assigned (empty document).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Records a freshly numbered subtree — its `(number, node)` pairs in
    /// document order — with one arena splice. Returns `false` (and
    /// changes nothing) if the run collides with an assigned number:
    /// minted keys must be unique.
    pub fn insert_run(&mut self, run: Vec<(Pbn, NodeId)>) -> bool {
        if !self.arena.insert_run(&run) {
            return false;
        }
        for (pbn, id) in run {
            if self.by_node.len() <= id.index() {
                self.by_node.resize(id.index() + 1, Pbn::empty());
            }
            self.by_node[id.index()] = pbn;
        }
        true
    }

    /// Retires the numbers of the subtree rooted at `id` with one arena
    /// splice; their `by_node` entries revert to the empty number.
    /// Returns the number of slots removed (0 if `id` is unnumbered).
    pub fn remove_subtree(&mut self, id: NodeId) -> usize {
        let key = self.arena.key_of(id);
        if key.is_empty() {
            return 0;
        }
        let slots = self.arena.subtree_slots(key);
        for &n in &self.arena.nodes_in_order()[slots.clone()] {
            self.by_node[n.index()] = Pbn::empty();
        }
        self.arena.remove_slots(slots.clone());
        slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbn;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn figure8_numbers_match_the_paper() {
        // Figure 8 gives the PBN numbers for the Figure 2 instance.
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let root = doc.root().unwrap();
        assert_eq!(a.pbn_of(root), &pbn![1]);

        let book1 = doc.children(root)[0];
        let book2 = doc.children(root)[1];
        assert_eq!(a.pbn_of(book1), &pbn![1, 1]);
        assert_eq!(a.pbn_of(book2), &pbn![1, 2]);

        // book2's children: title 1.2.1, author 1.2.2, publisher 1.2.3.
        let kids = doc.children(book2);
        assert_eq!(a.pbn_of(kids[0]), &pbn![1, 2, 1]);
        assert_eq!(a.pbn_of(kids[1]), &pbn![1, 2, 2]);
        assert_eq!(a.pbn_of(kids[2]), &pbn![1, 2, 3]);

        // name under author 1.2.2 is 1.2.2.1; its text D is 1.2.2.1.1.
        let author2 = kids[1];
        let name2 = doc.children(author2)[0];
        let d_text = doc.children(name2)[0];
        assert_eq!(a.pbn_of(name2), &pbn![1, 2, 2, 1]);
        assert_eq!(a.pbn_of(d_text), &pbn![1, 2, 2, 1, 1]);
    }

    #[test]
    fn node_lookup_round_trips() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        for id in doc.preorder() {
            let p = a.pbn_of(id);
            assert_eq!(a.node_of(p), Some(id));
        }
        assert_eq!(a.node_of(&pbn![9, 9]), None);
        assert_eq!(a.len(), doc.len());
    }

    #[test]
    fn arena_slots_are_document_order() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let preorder: Vec<_> = doc.preorder().collect();
        assert_eq!(a.arena().nodes_in_order(), &preorder[..]);
    }

    #[test]
    fn empty_document_is_empty_assignment() {
        let doc = Document::new("u");
        let a = PbnAssignment::assign(&doc);
        assert!(a.is_empty());
    }

    #[test]
    fn minted_inserts_are_keyed_immediately() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let before = a.len();

        // Mint a sibling between book1 (1.1) and book2 (1.2), attach it to
        // a fresh id past the current id space.
        let minted = crate::mint::KeyGen::between(&pbn![1], Some(&pbn![1, 1]), Some(&pbn![1, 2]));
        let new_id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(minted.clone(), new_id)]));
        let dup = NodeId::from_index(doc.len() + 1);
        assert!(!a.insert_run(vec![(minted.clone(), dup)]));

        // Number-level and byte-level reads both see the edit at once.
        assert_eq!(a.len(), before + 1);
        assert_eq!(a.pbn_of(new_id), &minted);
        assert_eq!(a.node_of(&minted), Some(new_id));
        assert_eq!(a.key_of(new_id), EncodedPbn::encode(&minted).as_bytes());
        let book1 = a.node_of(&pbn![1, 1]).unwrap();
        let book2 = a.node_of(&pbn![1, 2]).unwrap();
        assert!(a.key_of(book1) < a.key_of(new_id) && a.key_of(new_id) < a.key_of(book2));
    }

    #[test]
    fn removals_free_the_number_for_reuse() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let root = doc.root().unwrap();
        let book1 = doc.children(root)[0];
        let title1 = doc.children(book1)[0];
        let n = a.len();

        assert_eq!(a.remove_subtree(book1), 9);
        assert_eq!(a.remove_subtree(book1), 0, "double remove is a no-op");
        assert_eq!(a.len(), n - 9);
        assert_eq!(a.node_of(&pbn![1, 1]), None);
        assert_eq!(a.by_node_checked(book1), Some(&Pbn::empty()));
        assert!(a.key_of(title1).is_empty(), "descendants leave with it");

        // The freed number can be re-minted for a different node.
        let id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(pbn![1, 1], id)]));
        assert_eq!(a.node_of(&pbn![1, 1]), Some(id));
        assert_eq!(a.arena().len(), n - 8);
    }
}
