//! The per-thread heap model.
//!
//! Mobile phone resources are highly constrained, so the paper's OS
//! takes special care with memory management. This module models the
//! allocator at the granularity the failure study needs: cells with
//! identities, sizes and liveness, a capacity bound that makes
//! allocation failures (`KErrNoMemory` leaves) possible, and the
//! bookkeeping checks whose violation raises the undocumented
//! `E32USER-CBase 91/92` heap panics observed in the field.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::leave::LeaveCode;
use crate::panic::{codes, Panic};

/// Identifier of an allocated heap cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(u64);

impl CellId {
    /// The raw cell number (stable across the heap's lifetime).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Constructs a cell id from a raw number — the fault-injection
    /// entry point for "wild pointer" scenarios (freeing a cell the
    /// heap never handed out).
    pub fn from_raw(raw: u64) -> Self {
        CellId(raw)
    }
}

/// A bounded heap with explicit cell bookkeeping.
///
/// # Example
///
/// ```
/// use symfail_symbian::heap::Heap;
///
/// let mut heap = Heap::with_capacity(1024);
/// let cell = heap.alloc("owner", 128)?;
/// assert_eq!(heap.used(), 128);
/// heap.free(cell).unwrap();
/// assert_eq!(heap.used(), 0);
/// # Ok::<(), symfail_symbian::LeaveCode>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Heap {
    capacity: u64,
    used: u64,
    next_cell: u64,
    live: BTreeMap<u64, Cell>,
    /// Cells that were freed; retained so double frees are
    /// distinguishable from never-allocated cells.
    freed: Vec<u64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    size: u64,
    owner: String,
    corrupt_header: bool,
}

impl Heap {
    /// Creates a heap with the given capacity in bytes.
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            next_cell: 0,
            live: BTreeMap::new(),
            freed: Vec::new(),
        }
    }

    /// Allocates `size` bytes on behalf of `owner`.
    ///
    /// # Errors
    ///
    /// Leaves with [`LeaveCode::NoMemory`] when the heap cannot fit
    /// the request, and with [`LeaveCode::Argument`] for zero-sized
    /// requests.
    pub fn alloc(&mut self, owner: &str, size: u64) -> Result<CellId, LeaveCode> {
        if size == 0 {
            return Err(LeaveCode::Argument);
        }
        if self.used + size > self.capacity {
            return Err(LeaveCode::NoMemory);
        }
        let id = self.next_cell;
        self.next_cell += 1;
        self.live.insert(
            id,
            Cell {
                size,
                owner: owner.to_string(),
                corrupt_header: false,
            },
        );
        self.used += size;
        Ok(CellId(id))
    }

    /// Frees a cell.
    ///
    /// # Errors
    ///
    /// Raises `E32USER-CBase 91` when the cell was already freed
    /// (double free), `E32USER-CBase 92` when the cell was never
    /// allocated from this heap or its header was corrupted — the two
    /// "not documented" heap panics of Table 2.
    pub fn free(&mut self, cell: CellId) -> Result<(), Panic> {
        match self.live.remove(&cell.0) {
            Some(c) if c.corrupt_header => {
                // Put liveness back is pointless: the header is gone.
                self.used -= c.size;
                self.freed.push(cell.0);
                Err(Panic::new(
                    codes::E32USER_CBASE_92,
                    c.owner,
                    format!("freed cell {} with corrupt header", cell.0),
                ))
            }
            Some(c) => {
                self.used -= c.size;
                self.freed.push(cell.0);
                Ok(())
            }
            None if self.freed.contains(&cell.0) => Err(Panic::new(
                codes::E32USER_CBASE_91,
                "heap",
                format!("double free of cell {}", cell.0),
            )),
            None => Err(Panic::new(
                codes::E32USER_CBASE_92,
                "heap",
                format!("free of unknown cell {}", cell.0),
            )),
        }
    }

    /// Marks a live cell's header as corrupted (a fault-injection
    /// entry point: a wild write smashed the allocator metadata).
    /// Returns false if the cell is not live.
    pub fn corrupt_header(&mut self, cell: CellId) -> bool {
        match self.live.get_mut(&cell.0) {
            Some(c) => {
                c.corrupt_header = true;
                true
            }
            None => false,
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panic::codes;

    #[test]
    fn alloc_free_accounting() {
        let mut h = Heap::with_capacity(100);
        let a = h.alloc("app", 40).unwrap();
        let b = h.alloc("app", 40).unwrap();
        assert_eq!(h.used(), 80);
        assert_eq!(h.capacity - h.used, 20);
        assert_eq!(h.live.len(), 2);
        h.free(a).unwrap();
        assert_eq!(h.used(), 40);
        h.free(b).unwrap();
        assert_eq!(h.used(), 0);
    }

    #[test]
    fn exhaustion_leaves_with_no_memory() {
        let mut h = Heap::with_capacity(100);
        h.alloc("app", 90).unwrap();
        assert_eq!(h.alloc("app", 20), Err(LeaveCode::NoMemory));
        // A leave is recoverable: freeing makes room again.
        assert_eq!(h.live.len(), 1);
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let mut h = Heap::with_capacity(100);
        assert_eq!(h.alloc("app", 0), Err(LeaveCode::Argument));
    }

    #[test]
    fn double_free_raises_cbase_91() {
        let mut h = Heap::with_capacity(100);
        let a = h.alloc("app", 10).unwrap();
        h.free(a).unwrap();
        let p = h.free(a).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_91);
    }

    #[test]
    fn unknown_cell_raises_cbase_92() {
        let mut h = Heap::with_capacity(100);
        let other = Heap::with_capacity(100).alloc("x", 1).unwrap();
        let _ = h.alloc("app", 10).unwrap();
        // Cell 0 belongs to the other heap's id space but was never
        // allocated here beyond id 0; use an id beyond next_cell.
        let bogus = CellId(999);
        let p = h.free(bogus).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_92);
        let _ = other;
    }

    #[test]
    fn corrupt_header_raises_cbase_92_on_free() {
        let mut h = Heap::with_capacity(100);
        let a = h.alloc("Camera", 10).unwrap();
        assert!(h.corrupt_header(a));
        let p = h.free(a).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_92);
        assert_eq!(p.raised_by, "Camera");
        // The cell is gone afterwards; a second free is a double free.
        let p2 = h.free(a).unwrap_err();
        assert_eq!(p2.code, codes::E32USER_CBASE_91);
    }

    #[test]
    fn corrupt_header_on_dead_cell_returns_false() {
        let mut h = Heap::with_capacity(100);
        let a = h.alloc("app", 10).unwrap();
        h.free(a).unwrap();
        assert!(!h.corrupt_header(a));
    }
}
