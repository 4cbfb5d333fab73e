//! Kernel object index, handles and `CObject` reference counting.
//!
//! Clients refer to kernel objects (threads, servers, sessions,
//! timers…) by raw handle numbers resolved through a per-process
//! object index. Three of the paper's panic codes live here:
//!
//! * `KERN-EXEC 0` — the Kernel *Executive* cannot find an object for
//!   a raw handle number (a stale or garbage handle used in a syscall);
//! * `KERN-SVR 0` — the Kernel *Server* cannot find the object while
//!   servicing `RHandleBase::Close()` (a corrupt handle);
//! * `E32USER-CBase 33` — a `CObject` destructor ran while the
//!   reference count was still non-zero.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// A raw handle number, as stored in client code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Handle(u32);

impl Handle {
    /// The raw handle number.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Constructs a handle from a raw number — the fault-injection
    /// entry point for "corrupt handle" scenarios.
    pub fn from_raw(raw: u32) -> Self {
        Handle(raw)
    }
}

/// The kind of kernel object a handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// A thread.
    Thread,
    /// A server port.
    Server,
    /// A client/server session.
    Session,
    /// An asynchronous timer.
    Timer,
    /// A mutex.
    Mutex,
    /// A shared memory chunk.
    Chunk,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelObject {
    kind: ObjectKind,
    owner: String,
    refcount: u32,
}

/// The per-process object index.
///
/// # Example
///
/// ```
/// use symfail_symbian::object_index::{ObjectIndex, ObjectKind};
///
/// let mut index = ObjectIndex::new();
/// let h = index.open("Messages", ObjectKind::Session);
/// assert_eq!(index.kind_of(h)?, ObjectKind::Session);
/// index.close(h)?;
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObjectIndex {
    objects: BTreeMap<u32, KernelObject>,
    next_handle: u32,
}

impl ObjectIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a kernel object owned by `owner` and returns its
    /// handle. The new object has reference count 1.
    pub fn open(&mut self, owner: &str, kind: ObjectKind) -> Handle {
        let h = self.next_handle;
        self.next_handle += 1;
        self.objects.insert(
            h,
            KernelObject {
                kind,
                owner: owner.to_string(),
                refcount: 1,
            },
        );
        Handle(h)
    }

    /// Duplicates a handle, incrementing the reference count
    /// (`RHandleBase::Duplicate`).
    ///
    /// # Errors
    ///
    /// Raises `KERN-EXEC 0` for an unknown handle.
    pub fn duplicate(&mut self, handle: Handle) -> Result<Handle, Panic> {
        match self.objects.get_mut(&handle.0) {
            Some(obj) => {
                obj.refcount += 1;
                Ok(handle)
            }
            None => Err(self.exec_lookup_failure(handle)),
        }
    }

    /// Resolves a handle on the Kernel Executive path (a syscall using
    /// the object).
    ///
    /// # Errors
    ///
    /// Raises `KERN-EXEC 0` when the handle does not resolve.
    pub fn kind_of(&self, handle: Handle) -> Result<ObjectKind, Panic> {
        self.objects
            .get(&handle.0)
            .map(|o| o.kind)
            .ok_or_else(|| self.exec_lookup_failure(handle))
    }

    /// Closes a handle on the Kernel Server path
    /// (`RHandleBase::Close()`), decrementing the reference count and
    /// destroying the object when it reaches zero.
    ///
    /// # Errors
    ///
    /// Raises `KERN-SVR 0` when the object cannot be found — the
    /// corrupt-handle scenario of Table 2.
    pub fn close(&mut self, handle: Handle) -> Result<(), Panic> {
        match self.objects.get_mut(&handle.0) {
            Some(obj) => {
                obj.refcount -= 1;
                if obj.refcount == 0 {
                    self.objects.remove(&handle.0);
                }
                Ok(())
            }
            None => Err(Panic::new(
                codes::KERN_SVR_0,
                "KernelServer",
                format!("close could not find object for handle {}", handle.0),
            )),
        }
    }

    /// Destroys a `CObject` outright (its destructor ran). Legal only
    /// when the reference count is exactly 1 — destroying a shared
    /// object raises `E32USER-CBase 33`.
    ///
    /// # Errors
    ///
    /// Raises `E32USER-CBase 33` when the reference count is not 1
    /// (destroying while shared), or `KERN-EXEC 0` for an unknown
    /// handle.
    pub fn destroy_cobject(&mut self, handle: Handle) -> Result<(), Panic> {
        match self.objects.get(&handle.0) {
            Some(obj) if obj.refcount > 1 => Err(Panic::new(
                codes::E32USER_CBASE_33,
                obj.owner.clone(),
                format!(
                    "CObject destructor with reference count {} (handle {})",
                    obj.refcount, handle.0
                ),
            )),
            Some(_) => {
                self.objects.remove(&handle.0);
                Ok(())
            }
            None => Err(self.exec_lookup_failure(handle)),
        }
    }

    fn exec_lookup_failure(&self, handle: Handle) -> Panic {
        Panic::new(
            codes::KERN_EXEC_0,
            "KernelExecutive",
            format!("no object in index for raw handle {}", handle.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_lookup_close() {
        let mut idx = ObjectIndex::new();
        let h = idx.open("app", ObjectKind::Timer);
        assert_eq!(idx.kind_of(h).unwrap(), ObjectKind::Timer);
        assert_eq!(idx.objects[&h.0].refcount, 1);
        idx.close(h).unwrap();
        assert!(idx.objects.is_empty());
    }

    #[test]
    fn unknown_handle_is_kern_exec_0() {
        let idx = ObjectIndex::new();
        let p = idx.kind_of(Handle::from_raw(42)).unwrap_err();
        assert_eq!(p.code, codes::KERN_EXEC_0);
    }

    #[test]
    fn close_of_corrupt_handle_is_kern_svr_0() {
        let mut idx = ObjectIndex::new();
        let p = idx.close(Handle::from_raw(1234)).unwrap_err();
        assert_eq!(p.code, codes::KERN_SVR_0);
        assert_eq!(p.raised_by, "KernelServer");
    }

    #[test]
    fn duplicate_increments_and_close_decrements() {
        let mut idx = ObjectIndex::new();
        let h = idx.open("app", ObjectKind::Session);
        idx.duplicate(h).unwrap();
        assert_eq!(idx.objects[&h.0].refcount, 2);
        idx.close(h).unwrap();
        assert_eq!(idx.objects[&h.0].refcount, 1);
        idx.close(h).unwrap();
        assert!(idx.objects.is_empty());
        assert!(idx.duplicate(h).is_err());
    }

    #[test]
    fn destroy_shared_cobject_is_cbase_33() {
        let mut idx = ObjectIndex::new();
        let h = idx.open("Log", ObjectKind::Session);
        idx.duplicate(h).unwrap();
        let p = idx.destroy_cobject(h).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_33);
        assert_eq!(p.raised_by, "Log");
        // The object survives the failed destruction attempt.
        assert_eq!(idx.objects[&h.0].refcount, 2);
    }

    #[test]
    fn destroy_unshared_cobject_ok() {
        let mut idx = ObjectIndex::new();
        let h = idx.open("app", ObjectKind::Mutex);
        idx.destroy_cobject(h).unwrap();
        assert!(idx.objects.is_empty());
        assert_eq!(idx.destroy_cobject(h).unwrap_err().code, codes::KERN_EXEC_0);
    }
}
