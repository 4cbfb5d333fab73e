//! Cleanup stack, trap/leave and two-phase construction.
//!
//! The three memory-safety mechanisms Section 2 of the paper
//! describes:
//!
//! 1. the **clean-up stack** stores references to heap objects so they
//!    can be freed even when an error interrupts the code that
//!    allocated them;
//! 2. the **trap-leave technique** is the try/catch analogue: on a
//!    leave inside a trap block, control returns to the caller and the
//!    OS frees every object pushed on the cleanup stack during the
//!    block;
//! 3. **two-phase construction** ensures an object under construction
//!    whose dynamic extension fails to allocate is itself reclaimed
//!    via the cleanup stack.
//!
//! The non-recoverable misuse is leaving with **no trap handler
//! installed**, which raises `E32USER-CBase 69` — at 10.1% the second
//! most frequent panic in the study.

use crate::heap::{CellId, Heap};
use crate::leave::LeaveCode;
use crate::panic::{codes, Panic};

/// The per-thread cleanup stack plus trap-harness state.
///
/// # Example
///
/// ```
/// use symfail_symbian::cleanup::CleanupStack;
/// use symfail_symbian::heap::Heap;
/// use symfail_symbian::LeaveCode;
///
/// let mut heap = Heap::with_capacity(1024);
/// let mut cs = CleanupStack::new();
/// let result: Result<Result<(), LeaveCode>, _> = cs.trap(&mut heap, |cs, heap| {
///     let cell = heap.alloc("app", 64)?;
///     cs.push(cell);
///     Err(LeaveCode::NotFound) // leave: the trap frees the cell
/// });
/// assert_eq!(result.unwrap(), Err(LeaveCode::NotFound));
/// assert_eq!(heap.used(), 0);
/// ```
#[derive(Debug, Default)]
pub struct CleanupStack {
    items: Vec<CellId>,
    trap_marks: Vec<usize>,
}

impl CleanupStack {
    /// Creates an empty cleanup stack with no trap installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cells currently registered.
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Pushes a heap cell (`CleanupStack::PushL`).
    pub fn push(&mut self, cell: CellId) {
        self.items.push(cell);
    }

    /// Runs `body` under a trap harness (`TRAP`). If the body leaves,
    /// every cell pushed during the body is freed and the leave code
    /// is returned as the inner `Err`.
    ///
    /// # Errors
    ///
    /// The outer `Err` is a [`Panic`] and occurs only when unwinding
    /// itself fails (heap corruption discovered while freeing).
    pub fn trap<T, H>(&mut self, heap: &mut Heap, body: H) -> Result<Result<T, LeaveCode>, Panic>
    where
        H: FnOnce(&mut CleanupStack, &mut Heap) -> Result<T, LeaveCode>,
    {
        let mark = self.items.len();
        self.trap_marks.push(mark);
        let outcome = body(self, heap);
        self.trap_marks.pop();
        match outcome {
            Ok(v) => Ok(Ok(v)),
            Err(leave) => {
                // Unwind: free everything pushed during the block.
                while self.items.len() > mark {
                    let cell = self.items.pop().expect("len > mark implies non-empty");
                    heap.free(cell)?;
                }
                Ok(Err(leave))
            }
        }
    }

    /// Leaves (`User::Leave`). Inside a trap this is modelled by the
    /// body returning `Err(code)`; *outside* any trap it is the fatal
    /// misuse that raises `E32USER-CBase 69`.
    ///
    /// # Errors
    ///
    /// Always returns an error: the leave code wrapped for an
    /// installed trap, or the panic when no trap handler exists.
    pub fn leave(&self, code: LeaveCode) -> Result<LeaveCode, Panic> {
        if self.trap_marks.is_empty() {
            Err(Panic::new(
                codes::E32USER_CBASE_69,
                "cleanup",
                format!("leave {code} with no trap handler installed"),
            ))
        } else {
            Ok(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let a = heap.alloc("app", 10).unwrap();
        cs.push(a);
        assert_eq!(cs.depth(), 1);
        assert_eq!(cs.items.pop(), Some(a));
        assert_eq!(cs.items.pop(), None);
    }

    #[test]
    fn trap_success_keeps_cells() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let cell = cs
            .trap(&mut heap, |cs, heap| {
                let c = heap.alloc("app", 10)?;
                cs.push(c);
                cs.items.pop();
                Ok(c)
            })
            .unwrap()
            .unwrap();
        assert_eq!(cs.depth(), 0);
        // A live cell frees cleanly; a freed one raises CBase 91.
        assert!(heap.free(cell).is_ok());
    }

    #[test]
    fn trap_leave_unwinds_only_block_cells() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let outer = heap.alloc("app", 10).unwrap();
        cs.push(outer);
        let r = cs
            .trap(&mut heap, |cs, heap| -> Result<(), LeaveCode> {
                let inner = heap.alloc("app", 20)?;
                cs.push(inner);
                Err(LeaveCode::General)
            })
            .unwrap();
        assert_eq!(r, Err(LeaveCode::General));
        assert_eq!(heap.used(), 10);
        assert_eq!(cs.depth(), 1);
        assert!(
            heap.free(outer).is_ok(),
            "cells pushed before the trap survive"
        );
    }

    #[test]
    fn nested_traps_unwind_to_their_own_mark() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let r: Result<(), LeaveCode> = cs
            .trap(&mut heap, |cs, heap| {
                let keep = heap.alloc("app", 5)?;
                cs.push(keep);
                let inner = cs.trap(heap, |cs, heap| -> Result<(), LeaveCode> {
                    let doomed = heap.alloc("app", 7)?;
                    cs.push(doomed);
                    Err(LeaveCode::NotFound)
                });
                assert_eq!(inner.unwrap(), Err(LeaveCode::NotFound));
                assert_eq!(heap.used(), 5, "inner unwind freed only inner cell");
                Ok(())
            })
            .unwrap();
        assert_eq!(r, Ok(()));
        assert_eq!(heap.used(), 5);
    }

    #[test]
    fn leave_without_trap_is_cbase_69() {
        let cs = CleanupStack::new();
        let p = cs.leave(LeaveCode::NoMemory).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_69);
        assert!(p.reason.contains("KErrNoMemory"));
    }

    #[test]
    fn leave_inside_trap_is_recoverable() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let r = cs
            .trap(&mut heap, |cs, _| -> Result<(), LeaveCode> {
                let code = cs.leave(LeaveCode::TimedOut).expect("trap installed");
                Err(code)
            })
            .unwrap();
        assert_eq!(r, Err(LeaveCode::TimedOut));
    }

    #[test]
    fn unwind_over_corrupted_cell_escalates() {
        let mut heap = Heap::with_capacity(100);
        let mut cs = CleanupStack::new();
        let p = cs
            .trap(&mut heap, |cs, heap| -> Result<(), LeaveCode> {
                let c = heap.alloc("app", 10)?;
                cs.push(c);
                heap.corrupt_header(c);
                Err(LeaveCode::General)
            })
            .unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_92);
    }
}
