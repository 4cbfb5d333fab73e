//! Std-only resource accounting: a counting global allocator
//! (per-thread calls and bytes, process-wide live and peak heap) and
//! readers for the kernel's per-thread scheduler statistics and the
//! process CPU clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation on the calling thread and tracks the
/// process's live and peak heap bytes.
pub struct CountingAlloc;

// Relaxed throughout: the counters publish no other data, they are
// statistics read between operations.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized so the allocator can touch them without
    // allocating (a lazily initialized slot would recurse).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator still runs while thread-locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn live_add(n: usize) {
    let live = LIVE.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn live_sub(n: usize) {
    LIVE.fetch_sub(n as u64, Ordering::Relaxed);
}

// SAFETY: every operation is forwarded unchanged to `System`; the
// bookkeeping around it only updates atomics and const-initialized
// thread-locals, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live_add(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_sub(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        if new_size >= layout.size() {
            live_add(new_size - layout.size());
        } else {
            live_sub(layout.size() - new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for a block `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, requested bytes)` made by the calling thread so
/// far; a reallocation counts as one call of its new size.
pub fn thread_allocs() -> (u64, u64) {
    (
        CALLS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Most live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Reads a small proc file into a stack buffer, so the accounting
/// itself never shows up in the allocation counters.
fn read_small(path: &str, buf: &mut [u8]) -> Option<usize> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(_) => return None,
        }
    }
    Some(len)
}

/// `(on-CPU ns, runnable-but-waiting ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`. The kernel folds the running slice
/// into the on-CPU figure at scheduler ticks and context switches, so
/// one short call may read a tick more or less; sums over many calls
/// are unbiased.
pub fn thread_sched() -> Option<(u64, u64)> {
    let mut buf = [0u8; 96];
    let len = read_small("/proc/thread-self/schedstat", &mut buf)?;
    let text = std::str::from_utf8(&buf[..len]).ok()?;
    let mut fields = text.split_ascii_whitespace();
    let cpu = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((cpu, wait))
}

/// Seconds of CPU the whole process has used (user + system, every
/// thread, exited ones included), from `/proc/self/stat`.
pub fn process_cpu_s() -> Option<f64> {
    let mut buf = [0u8; 1024];
    let len = read_small("/proc/self/stat", &mut buf)?;
    let text = std::str::from_utf8(&buf[..len]).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. the 12th and 13th after it.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, fixed at 100 per second.
    Some((utime + stime) as f64 / 100.0)
}
