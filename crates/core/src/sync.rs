//! Poison-recovering lock accessors.
//!
//! The process-global tables (labels, policy classes) and
//! every per-request shared structure in the serving path are consistent
//! at each possible panic point — their writes are single inserts/pushes,
//! or stage data before attaching it. For such structures a poisoned lock
//! carries no information: recovering the guard with
//! [`PoisonError::into_inner`] is sound, and propagating the poison would
//! turn one panicking worker thread into a process-wide denial of
//! service (every later lock access panicking too).
//!
//! Use these helpers instead of hand-rolling the recovery at each call
//! site — and only for data structures that actually hold the
//! consistent-at-every-panic-point invariant.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks `lock`, recovering from poison.
pub fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering from poison.
pub fn wlock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `lock`, recovering from poison.
pub fn mlock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn all_three_recover_from_poison() {
        let rw = Arc::new(RwLock::new(1));
        let m = Arc::new(Mutex::new(2));
        let (rw2, m2) = (Arc::clone(&rw), Arc::clone(&m));
        let _ = std::thread::spawn(move || {
            let _a = rw2.write().unwrap();
            let _b = m2.lock().unwrap();
            panic!("poison both");
        })
        .join();
        assert!(rw.is_poisoned() && m.is_poisoned());
        assert_eq!(*rlock(&rw), 1);
        *wlock(&rw) = 10;
        assert_eq!(*rlock(&rw), 10);
        assert_eq!(*mlock(&m), 2);
    }
}
