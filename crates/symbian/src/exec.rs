//! Kernel executive memory-access model — the home of `KERN-EXEC 3`,
//! the panic behind **56.31%** of all panics in the study.
//!
//! A process owns a set of mapped address ranges; dereferencing an
//! address outside them (most commonly NULL) is an unhandled exception
//! that the kernel executive turns into a `KERN-EXEC 3` panic against
//! the offending application. The model also covers the other
//! documented causes: general protection faults (writing a read-only
//! range), invalid instructions and alignment checks.

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// A virtual address in the simulated process.
pub type Address = u64;

/// Access intent for a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Reading from the address.
    Read,
    /// Writing to the address.
    Write,
    /// Fetching an instruction from the address.
    Execute,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Mapping {
    start: Address,
    len: u64,
    writable: bool,
    executable: bool,
}

/// The memory map of one process, with the access checks the kernel
/// executive performs.
///
/// # Example
///
/// ```
/// use symfail_symbian::exec::{Access, MemoryMap};
/// use symfail_symbian::panic::codes;
///
/// let mut map = MemoryMap::new("Camera");
/// map.map_region(0x1000, 0x1000, true, false);
/// assert!(map.check(0x1800, Access::Read).is_ok());
/// let p = map.check(0, Access::Read).unwrap_err(); // NULL deref
/// assert_eq!(p.code, codes::KERN_EXEC_3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryMap {
    process: String,
    mappings: Vec<Mapping>,
}

impl MemoryMap {
    /// Creates an empty map for the named process. Address 0 is never
    /// mapped: NULL dereferences always fault, as on real hardware.
    pub fn new(process: &str) -> Self {
        Self {
            process: process.to_string(),
            mappings: Vec::new(),
        }
    }

    /// Maps `[start, start+len)` with the given permissions. The page
    /// containing address 0 is silently excluded.
    pub fn map_region(&mut self, start: Address, len: u64, writable: bool, executable: bool) {
        let (start, len) = if start == 0 {
            // keep NULL unmapped: skip the first 4 KiB "page"
            let skip = 4096.min(len);
            (skip, len - skip)
        } else {
            (start, len)
        };
        if len > 0 {
            self.mappings.push(Mapping {
                start,
                len,
                writable,
                executable,
            });
        }
    }

    /// Performs the kernel executive access check for `addr`.
    ///
    /// # Errors
    ///
    /// Raises `KERN-EXEC 3` with a cause-specific reason:
    /// * "dereferenced NULL" for addresses in the first page,
    /// * "access violation" for unmapped addresses,
    /// * "general protection fault" for writes to read-only ranges,
    /// * "executing an invalid instruction" for execute on
    ///   non-executable ranges.
    pub fn check(&self, addr: Address, access: Access) -> Result<(), Panic> {
        if addr < 4096 {
            return Err(self.kern_exec_3(format!(
                "unhandled exception: dereferenced NULL (address {addr:#x})"
            )));
        }
        match self
            .mappings
            .iter()
            .find(|m| addr >= m.start && addr < m.start + m.len)
        {
            None => Err(self.kern_exec_3(format!(
                "unhandled exception: access violation at unmapped address {addr:#x}"
            ))),
            Some(m) => match access {
                Access::Read => Ok(()),
                Access::Write if m.writable => Ok(()),
                Access::Write => Err(self.kern_exec_3(format!(
                    "unhandled exception: general protection fault writing {addr:#x}"
                ))),
                Access::Execute if m.executable => Ok(()),
                Access::Execute => Err(self.kern_exec_3(format!(
                    "unhandled exception: executing an invalid instruction at {addr:#x}"
                ))),
            },
        }
    }

    fn kern_exec_3(&self, reason: String) -> Panic {
        Panic::new(codes::KERN_EXEC_3, self.process.clone(), reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MemoryMap {
        let mut m = MemoryMap::new("app");
        m.map_region(0x1_0000, 0x1000, true, false); // rw data
        m.map_region(0x2_0000, 0x1000, false, true); // rx code
        m.map_region(0x3_0000, 0x1000, false, false); // ro data
        m
    }

    #[test]
    fn null_deref_is_kern_exec_3() {
        let m = map();
        for addr in [0u64, 1, 4095] {
            let p = m.check(addr, Access::Read).unwrap_err();
            assert_eq!(p.code, codes::KERN_EXEC_3);
            assert!(p.reason.contains("NULL"), "{}", p.reason);
        }
    }

    #[test]
    fn unmapped_access_violation() {
        let p = map().check(0x9_0000, Access::Read).unwrap_err();
        assert_eq!(p.code, codes::KERN_EXEC_3);
        assert!(p.reason.contains("access violation"));
    }

    #[test]
    fn mapped_access_ok() {
        let m = map();
        assert!(m.check(0x1_0000, Access::Read).is_ok());
        assert!(m.check(0x1_0FFF, Access::Write).is_ok());
        assert!(m.check(0x2_0000, Access::Execute).is_ok());
        assert!(m.check(0x3_0000, Access::Read).is_ok());
    }

    #[test]
    fn boundary_is_exclusive() {
        let m = map();
        assert!(m.check(0x1_1000, Access::Read).is_err());
    }

    #[test]
    fn write_to_readonly_is_gpf() {
        let p = map().check(0x3_0000, Access::Write).unwrap_err();
        assert!(p.reason.contains("general protection fault"));
    }

    #[test]
    fn execute_data_is_invalid_instruction() {
        let p = map().check(0x1_0000, Access::Execute).unwrap_err();
        assert!(p.reason.contains("invalid instruction"));
    }

    #[test]
    fn mapping_at_zero_excludes_null_page() {
        let mut m = MemoryMap::new("app");
        m.map_region(0, 8192, true, false);
        assert!(m.check(0, Access::Read).is_err());
        assert!(m.check(4096, Access::Read).is_ok());
        // Tiny zero-start mapping disappears entirely.
        let mut t = MemoryMap::new("app");
        t.map_region(0, 100, true, false);
        assert!(t.check(50, Access::Read).is_err());
    }
}
