//! Named event counters: the one place the runtime counts its own work.
//!
//! Each [`Counter`] is incremented ([`inc`]) at the single choke point
//! where its event happens, always (there is nothing to configure), and
//! read two ways: [`thread`] for the calling thread's events, [`total`]
//! for the process's, exited threads included. A counter's scope is part
//! of its meaning: the check caches' counters count caches each thread
//! keeps for itself, the others work on state all threads share. Counts
//! of one instance, of which a process may hold several
//! (`resin_store::Store::stats`, a server's connections), stay on their
//! instance.
//!
//! **Owner-only writes.** Each thread owns a shard, one slot per counter
//! on cache lines of its own. Only the owner writes it, with a plain load
//! and store (no read-modify-write, no shared cache line), so an increment
//! costs what a thread-local `Cell` does; other threads only read it, in
//! [`total`]. An exiting thread's counts move into the retired sums under
//! the lock [`total`] reads under, so none is lost or read twice.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::sync::mlock;

/// The runtime's event counters; the README's "Counters" section gives
/// each one's scope and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Crossings that reused an earlier allow, or executed on the field
    /// snapshot their class plan last executed on this thread.
    CheckCacheHits,
    /// Crossings that executed on another snapshot.
    CheckCacheMisses,
    /// Crossings that reused an earlier allow instead of executing.
    VerdictsReused,
    /// Policy-method chunks the class plans compiled.
    PolicyChunksCompiled,
    /// Takes of the process-wide class-plan table's lock.
    PlanTableLocks,
    /// Label-table read-lock takes.
    LabelReadLocks,
    /// Label-table write-lock takes.
    LabelWriteLocks,
    /// Policy texts the policy class registry's read index resolved: one
    /// take of the registry's read lock each.
    WireHits,
    /// Policy texts the read index did not hold: one take of the
    /// registry's read lock each, before the text is decoded.
    WireMisses,
    /// Policy texts decoded through the class registry.
    PolicyDecodes,
    /// `export_check` calls of the default gate filter.
    NativeChecks,
    /// Script-policy crossings that executed `export_check`.
    ScriptCrossings,
}

const COUNTERS: usize = Counter::ScriptCrossings as usize + 1;

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; COUNTERS] = {
        use Counter::*;
        [
            CheckCacheHits,
            CheckCacheMisses,
            VerdictsReused,
            PolicyChunksCompiled,
            PlanTableLocks,
            LabelReadLocks,
            LabelWriteLocks,
            WireHits,
            WireMisses,
            PolicyDecodes,
            NativeChecks,
            ScriptCrossings,
        ]
    };
}

/// One thread's counts, on cache lines of their own.
#[repr(align(128))]
struct Shard([AtomicU64; COUNTERS]);

/// The live threads' shards, and the sums of the exited threads' counts.
static REGISTRY: Mutex<(Vec<Arc<Shard>>, [u64; COUNTERS])> =
    Mutex::new((Vec::new(), [0; COUNTERS]));

/// A thread's shard, registered on its first count and retired (its
/// counts summed) when the thread exits.
struct Owned(Arc<Shard>);

impl Drop for Owned {
    fn drop(&mut self) {
        let (live, retired) = &mut *mlock(&REGISTRY);
        for (sum, slot) in retired.iter_mut().zip(&self.0 .0) {
            *sum += slot.load(Relaxed);
        }
        live.retain(|shard| !Arc::ptr_eq(shard, &self.0));
    }
}

thread_local! {
    static SHARD: Owned = {
        let shard = Arc::new(Shard([const { AtomicU64::new(0) }; COUNTERS]));
        mlock(&REGISTRY).0.push(shard.clone());
        Owned(shard)
    };
}

/// Counts one `counter` event on the calling thread.
#[inline]
pub fn inc(counter: Counter) {
    let counted = SHARD.try_with(|owned| {
        // Only this thread writes this slot: no read-modify-write.
        let slot = &owned.0 .0[counter as usize];
        slot.store(slot.load(Relaxed) + 1, Relaxed);
    });
    if counted.is_err() {
        // From another thread-local's destructor, after this thread's
        // shard was retired: straight into the retired sums.
        mlock(&REGISTRY).1[counter as usize] += 1;
    }
}

/// The calling thread's count of `counter` events.
pub fn thread(counter: Counter) -> u64 {
    SHARD
        .try_with(|owned| owned.0 .0[counter as usize].load(Relaxed))
        .unwrap_or(0)
}

/// The process's count of `counter` events, every live and exited
/// thread's. Another thread's events are seen once they are ordered
/// before this read (by a join, a lock, a channel).
pub fn total(counter: Counter) -> u64 {
    let (live, retired) = &*mlock(&REGISTRY);
    let live: u64 = (live.iter())
        .map(|shard| shard.0[counter as usize].load(Relaxed))
        .sum();
    retired[counter as usize] + live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_is_the_threads_own_and_survives_its_exit() {
        let c = Counter::ScriptCrossings;
        let (mine, all) = (thread(c), total(c));
        for _ in 0..2 {
            std::thread::spawn(move || {
                assert_eq!(thread(c), 0, "a new thread starts at zero");
                for _ in 0..5 {
                    inc(c);
                }
                assert_eq!(thread(c), 5);
            })
            .join()
            .unwrap();
        }
        inc(c);
        assert_eq!(thread(c) - mine, 1, "the other threads' events are theirs");
        // Other tests of this binary may count this event at the same time.
        assert!(total(c) - all >= 11, "an exited thread's events are kept");
    }

    #[test]
    fn every_counter_is_listed_once_in_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
    }
}
