//! A fleet-wide name interner for the zero-copy parse path.
//!
//! Panic records carry small string fields — the raising component,
//! the reason text, and the running-application list — that repeat
//! across millions of events but come from a tiny universe (the phone
//! has a few dozen applications). Storing them as `Vec<String>` per
//! record is exactly the per-event allocation churn the codec rework
//! removes: the dataset build interns each distinct name once into a
//! [`NameTable`] and every event stores [`NameId`]s, with the common
//! short application lists held inline in [`NameIds`] (no heap
//! allocation at all for up to [`NameIds::INLINE`] entries).
//!
//! Per-phone tables are built independently (so the parallel parse
//! needs no shared state) and merged deterministically — in phone-id
//! order, via [`NameTable::absorb`] — into one fleet table as the
//! campaign driver's folds merge, so the resulting ids are identical
//! for any worker count.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Interned name handle: an index into a [`NameTable`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NameId(pub u16);

/// An append-only string interner: distinct names get dense `u16` ids.
///
/// Each name is allocated once and shared by the id-ordered list and
/// the name-to-id index. Every panic's reason text is a name, so the
/// table grows with a phone's panics, not only with its applications.
///
/// # Example
///
/// ```
/// use symfail_core::intern::NameTable;
///
/// let mut names = NameTable::default();
/// let a = names.intern("Messages");
/// let b = names.intern("Camera");
/// assert_eq!(names.intern("Messages"), a);
/// assert_ne!(a, b);
/// assert_eq!(names.resolve(a), "Messages");
/// assert_eq!(names.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u16>,
}

impl PartialEq for NameTable {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from `names`; comparing it would only
        // repeat the work.
        self.names == other.names
    }
}

impl Eq for NameTable {}

impl NameTable {
    /// Interns `name`, returning its stable id. Ids are assigned in
    /// first-seen order, which is what makes per-phone tables (and the
    /// merged fleet table) deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed `u16::MAX + 1` distinct names —
    /// far beyond any real application universe.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return NameId(id);
        }
        let id = u16::try_from(self.names.len())
            .expect("name table overflow: more than 65536 distinct names");
        let name: Arc<str> = name.into();
        self.index.insert(Arc::clone(&name), id);
        self.names.push(name);
        NameId(id)
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table (or a table this
    /// one was merged into).
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    /// Interns every name of `other` into `self` and returns the remap
    /// table: `remap[old_id] = new_id`. Absorbing tables in a fixed
    /// order yields the same merged table regardless of how the
    /// per-phone tables were produced.
    pub fn absorb(&mut self, other: &NameTable) -> Vec<u16> {
        other.names.iter().map(|n| self.intern(n).0).collect()
    }
}

/// A `SmallVec`-style id list: up to [`Self::INLINE`] ids are stored
/// inline (no heap allocation); longer lists spill to a `Vec`.
///
/// Running-application snapshots at panic time are overwhelmingly
/// short — the paper's Figure 6 finding is that usually only *one*
/// application runs — so the inline capacity covers essentially every
/// real record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NameIds {
    /// Inline storage: `ids[..len]` are valid.
    Inline {
        /// Number of valid entries in `ids`.
        len: u8,
        /// Inline id buffer.
        ids: [u16; NameIds::INLINE],
    },
    /// Heap storage for lists longer than [`Self::INLINE`].
    Spilled(Vec<u16>),
}

impl Default for NameIds {
    fn default() -> Self {
        NameIds::Inline {
            len: 0,
            ids: [0; Self::INLINE],
        }
    }
}

impl NameIds {
    /// Inline capacity before spilling to the heap.
    pub const INLINE: usize = 10;

    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an id.
    pub fn push(&mut self, id: NameId) {
        match self {
            NameIds::Inline { len, ids } => {
                if (*len as usize) < Self::INLINE {
                    ids[*len as usize] = id.0;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE * 2);
                    v.extend_from_slice(ids);
                    v.push(id.0);
                    *self = NameIds::Spilled(v);
                }
            }
            NameIds::Spilled(v) => v.push(id.0),
        }
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[u16] {
        match self {
            NameIds::Inline { len, ids } => &ids[..*len as usize],
            NameIds::Spilled(v) => v,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the ids.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NameId> + '_ {
        self.as_slice().iter().map(|&id| NameId(id))
    }

    /// Rewrites every id through `remap` (as produced by
    /// [`NameTable::absorb`]).
    pub fn remap(&mut self, remap: &[u16]) {
        let ids: &mut [u16] = match self {
            NameIds::Inline { len, ids } => &mut ids[..*len as usize],
            NameIds::Spilled(v) => v,
        };
        for id in ids {
            *id = remap[*id as usize];
        }
    }
}

impl FromIterator<NameId> for NameIds {
    fn from_iter<I: IntoIterator<Item = NameId>>(iter: I) -> Self {
        let mut ids = NameIds::new();
        for id in iter {
            ids.push(id);
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = NameTable::default();
        let ids: Vec<NameId> = ["a", "b", "a", "c", "b"]
            .iter()
            .map(|n| t.intern(n))
            .collect();
        assert_eq!(
            ids,
            vec![NameId(0), NameId(1), NameId(0), NameId(2), NameId(1)]
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.resolve(NameId(2)), "c");
        assert_eq!(t.index.get("b"), Some(&1));
        assert_eq!(t.index.get("zz"), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn absorb_remaps_deterministically() {
        let mut fleet = NameTable::default();
        fleet.intern("x");
        let mut phone = NameTable::default();
        phone.intern("y");
        phone.intern("x");
        let remap = fleet.absorb(&phone);
        assert_eq!(remap, vec![1, 0], "y -> new id 1, x -> existing id 0");
        assert_eq!(fleet.len(), 2);
        // Absorbing again is a no-op on the table and yields the same
        // remap.
        assert_eq!(fleet.absorb(&phone), vec![1, 0]);
        assert_eq!(fleet.len(), 2);
    }

    #[test]
    fn name_ids_inline_then_spill() {
        let mut ids = NameIds::new();
        assert!(ids.is_empty());
        for i in 0..NameIds::INLINE as u16 {
            ids.push(NameId(i));
        }
        assert!(
            matches!(ids, NameIds::Inline { .. }),
            "still inline at capacity"
        );
        ids.push(NameId(99));
        assert!(matches!(ids, NameIds::Spilled(_)), "spills past capacity");
        assert_eq!(ids.len(), NameIds::INLINE + 1);
        let expect: Vec<u16> = (0..NameIds::INLINE as u16).chain([99]).collect();
        assert_eq!(ids.as_slice(), &expect[..]);
    }

    #[test]
    fn remap_rewrites_in_place() {
        let mut ids: NameIds = [NameId(0), NameId(2)].into_iter().collect();
        ids.remap(&[5, 6, 7]);
        assert_eq!(ids.as_slice(), &[5, 7]);
        assert_eq!(ids.iter().collect::<Vec<_>>(), vec![NameId(5), NameId(7)]);
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = NameTable::default();
        let mut b = NameTable::default();
        a.intern("m");
        b.intern("m");
        assert_eq!(a, b);
        b.intern("n");
        assert_ne!(a, b);
    }
}
