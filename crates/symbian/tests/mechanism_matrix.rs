//! Cross-mechanism integration tests: each OS mechanism raises *only*
//! the panic codes documented for it, under randomized drives — the
//! substrate-side guarantee the fault injector's attribution relies
//! on.

use symfail_sim_core::{SimDuration, SimRng, SimTime};
use symfail_symbian::active::{ActiveScheduler, AoId, RunOutcome};
use symfail_symbian::cleanup::CleanupStack;
use symfail_symbian::descriptor::TBuf;
use symfail_symbian::exec::{Access, MemoryMap};
use symfail_symbian::heap::Heap;
use symfail_symbian::ipc::ServerPort;
use symfail_symbian::leave::LeaveCode;
use symfail_symbian::object_index::{Handle, ObjectIndex, ObjectKind};
use symfail_symbian::panic::{codes, PanicCategory};
use symfail_symbian::timer::RTimer;

#[test]
fn descriptors_only_raise_user_panics() {
    let mut rng = SimRng::seed_from(1);
    for _ in 0..2000 {
        let mut buf = TBuf::with_max_length(rng.index(8));
        let ops: [Result<(), _>; 4] = [
            buf.copy("abcdefgh"),
            buf.insert(rng.index(10), "xy"),
            buf.delete(rng.index(12), rng.index(4)),
            buf.append(&"z".repeat(rng.index(12))),
        ];
        for r in ops {
            if let Err(p) = r {
                assert_eq!(p.code.category, PanicCategory::User);
                assert!(p.code == codes::USER_10 || p.code == codes::USER_11);
            }
        }
    }
}

#[test]
fn heap_only_raises_cbase_91_92() {
    let mut rng = SimRng::seed_from(2);
    let mut heap = Heap::with_capacity(1 << 14);
    let mut cells = Vec::new();
    for _ in 0..3000 {
        match rng.index(3) {
            0 => {
                if let Ok(c) = heap.alloc("app", 1 + rng.next_u64() % 64) {
                    cells.push(c);
                }
            }
            1 => {
                if !cells.is_empty() {
                    let c = cells.swap_remove(rng.index(cells.len()));
                    // Sometimes double free or corrupt first.
                    if rng.chance(0.1) {
                        heap.corrupt_header(c);
                    }
                    let first = heap.free(c);
                    if rng.chance(0.2) {
                        let second = heap.free(c);
                        if let Err(p) = second {
                            assert!(
                                p.code == codes::E32USER_CBASE_91
                                    || p.code == codes::E32USER_CBASE_92
                            );
                        }
                    }
                    if let Err(p) = first {
                        assert_eq!(p.code, codes::E32USER_CBASE_92);
                    }
                }
            }
            _ => {
                if let Err(p) = heap.free(symfail_symbian::heap::CellId::from_raw(
                    100_000 + rng.next_u64() % 1000,
                )) {
                    assert!(p.code == codes::E32USER_CBASE_91 || p.code == codes::E32USER_CBASE_92);
                }
            }
        }
    }
}

#[test]
fn object_index_raises_exactly_its_three_codes() {
    let mut rng = SimRng::seed_from(3);
    let mut idx = ObjectIndex::new();
    let mut handles = Vec::new();
    for _ in 0..3000 {
        match rng.index(5) {
            0 => handles.push(idx.open("app", ObjectKind::Session)),
            1 => {
                let h = random_handle(&handles, &mut rng);
                if let Err(p) = idx.duplicate(h) {
                    assert_eq!(p.code, codes::KERN_EXEC_0);
                }
            }
            2 => {
                let h = random_handle(&handles, &mut rng);
                if let Err(p) = idx.close(h) {
                    assert_eq!(p.code, codes::KERN_SVR_0);
                }
            }
            3 => {
                let h = random_handle(&handles, &mut rng);
                if let Err(p) = idx.destroy_cobject(h) {
                    assert!(p.code == codes::E32USER_CBASE_33 || p.code == codes::KERN_EXEC_0);
                }
            }
            _ => {
                let h = random_handle(&handles, &mut rng);
                if let Err(p) = idx.kind_of(h) {
                    assert_eq!(p.code, codes::KERN_EXEC_0);
                }
            }
        }
    }
}

fn random_handle(handles: &[Handle], rng: &mut SimRng) -> Handle {
    if handles.is_empty() || rng.chance(0.3) {
        Handle::from_raw((rng.next_u64() % 10_000) as u32)
    } else {
        handles[rng.index(handles.len())]
    }
}

#[test]
fn scheduler_raises_exactly_its_three_codes() {
    let mut rng = SimRng::seed_from(4);
    let mut sched = ActiveScheduler::new("App", SimDuration::from_secs(10));
    let mut aos: Vec<AoId> = (0..6)
        .map(|i| sched.add(&format!("ao{i}"), i % 2 == 0))
        .collect();
    for _ in 0..3000 {
        let ao = aos[rng.index(aos.len())];
        match rng.index(3) {
            0 => {
                let _ = sched.set_active(ao);
            }
            1 => {
                if let Err(p) = sched.signal(ao) {
                    assert_eq!(p.code, codes::E32USER_CBASE_46);
                }
            }
            _ => {
                let outcome = if rng.chance(0.3) {
                    RunOutcome::Leave(LeaveCode::General)
                } else {
                    RunOutcome::Ok
                };
                let dur = SimDuration::from_secs(rng.next_u64() % 15);
                if let Err(p) = sched.run(ao, outcome, dur) {
                    assert!(
                        p.code == codes::E32USER_CBASE_46
                            || p.code == codes::E32USER_CBASE_47
                            || p.code == codes::VIEWSRV_11
                    );
                }
            }
        }
    }
    aos.push(sched.add("late", true));
}

#[test]
fn timers_memory_and_ipc_attribution() {
    let mut rng = SimRng::seed_from(5);
    // Timers: only KERN-EXEC 15.
    let mut timer = RTimer::new("Clock");
    for _ in 0..200 {
        if rng.chance(0.5) {
            // A fresh timer has no request outstanding.
            timer = RTimer::new("Clock");
        }
        if let Err(p) = timer.after(SimTime::ZERO, SimDuration::from_secs(1)) {
            assert_eq!(p.code, codes::KERN_EXEC_15);
        }
    }
    // Memory: only KERN-EXEC 3.
    let mut map = MemoryMap::new("App");
    map.map_region(0x1000, 0x1000, true, false);
    for _ in 0..500 {
        let addr = rng.next_u64() % 0x4000;
        let access = *rng.choose(&[Access::Read, Access::Write, Access::Execute]);
        if let Err(p) = map.check(addr, access) {
            assert_eq!(p.code, codes::KERN_EXEC_3);
        }
    }
    // IPC: KERN-SVR 70 or MSGS Client 3.
    let mut port = ServerPort::new("Srv", 4);
    for _ in 0..500 {
        match port.send("Client", 0, rng.index(8)) {
            Ok(msg) => {
                let reply = if rng.chance(0.5) {
                    "long reply body"
                } else {
                    ""
                };
                if let Err(p) = port.complete(msg, reply) {
                    assert_eq!(p.code, codes::MSGS_CLIENT_3);
                }
                if rng.chance(0.2) {
                    if let Err(p) = port.complete(msg, "again") {
                        assert_eq!(p.code, codes::KERN_SVR_70);
                    }
                }
            }
            Err(code) => assert_eq!(code, LeaveCode::ServerBusy),
        }
    }
}

#[test]
fn cleanup_stack_full_protocol_under_random_drive() {
    let mut rng = SimRng::seed_from(6);
    let mut heap = Heap::with_capacity(1 << 16);
    let mut cs = CleanupStack::new();
    for _ in 0..300 {
        let leave = rng.chance(0.5);
        let allocs = rng.index(6);
        let used_before = heap.used();
        let depth_before = cs.depth();
        let r = cs.trap(&mut heap, |cs, heap| {
            for _ in 0..allocs {
                let c = heap.alloc("app", 16)?;
                if leave {
                    cs.push(c);
                } else {
                    // The success path frees what it allocates.
                    let _ = heap.free(c);
                }
            }
            if leave {
                Err(LeaveCode::General)
            } else {
                Ok(())
            }
        });
        assert!(r.is_ok(), "unwinding never hits corruption here");
        assert_eq!(heap.used(), used_before, "no leaks either way");
        assert_eq!(cs.depth(), depth_before);
    }
}
