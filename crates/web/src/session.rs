//! Session management: cookie → authenticated user.
//!
//! The store is safe to share across worker threads (all methods take
//! `&self`; the map lives behind an `RwLock`), which is what
//! [`crate::server`]'s dispatcher needs: every concurrent request resolves
//! its cookie against the same store.
//!
//! Session ids are derived from a real entropy source by default. An
//! earlier revision derived them from `counter * 2654435761 % 0xffff_ffff`
//! plus the user-name length — fully predictable, so any visitor could
//! enumerate live sessions and hijack them. The generator is injectable
//! ([`SidSource`]) so tests that need reproducible ids can use
//! [`SeededSource`] without weakening the default.
//!
//! Sessions **expire**: each carries a TTL deadline, lookups treat an
//! expired session as absent, and every login sweeps expired entries out
//! of the map — so a long-running server's session table is bounded by
//! its live users, not by every login since boot (an earlier revision
//! never evicted anything). Resolves sweep too, opportunistically: an
//! earlier revision only swept on `login`, so a server whose traffic
//! turned read-only after a burst of logins held every expired session
//! until the *next* login, indefinitely. Every [`SWEEP_INTERVAL`]th
//! [`user_for`](SessionStore::user_for) now walks a bounded slice of the
//! map from a rotating cursor — O(1) amortized per resolve, with no full
//! scans on the hot path. The clock is injectable ([`SessionClock`],
//! mirroring [`SidSource`]) so expiry is testable without sleeping.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use resin_core::sync::{mlock, rlock, wlock};

use resin_core::TaintedString;

/// A source of 128-bit session-id material.
///
/// Implementations must be thread-safe: the store calls `next_sid`
/// concurrently from every worker serving a login.
pub trait SidSource: Send + Sync {
    /// The next session-id value. Must not repeat in practice; for the
    /// default source that means real entropy, for test sources a
    /// deterministic non-repeating sequence.
    fn next_sid(&self) -> u128;
}

/// The default source: OS entropy from `/dev/urandom`, falling back to
/// hasher-seed mixing on platforms without it.
#[derive(Debug, Default)]
pub(crate) struct EntropySource;

impl EntropySource {
    fn os_entropy() -> Option<u128> {
        // One shared fd for the process: logins on the serving path pay a
        // read, not an open/read/close. `&File` is `Read`, and concurrent
        // reads of /dev/urandom each get independent bytes.
        static URANDOM: std::sync::OnceLock<Option<std::fs::File>> = std::sync::OnceLock::new();
        let mut f = URANDOM
            .get_or_init(|| std::fs::File::open("/dev/urandom").ok())
            .as_ref()?;
        let mut bytes = [0u8; 16];
        f.read_exact(&mut bytes).ok()?;
        Some(u128::from_le_bytes(bytes))
    }

    /// Fallback mixing for platforms without `/dev/urandom`: two
    /// independently-seeded SipHash instances (`RandomState` draws its keys
    /// from OS entropy) over a process-unique counter and the current time.
    fn mixed_entropy() -> u128 {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        let word = |salt: u64| {
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_u64(salt);
            h.write_u64(count);
            h.write_u64(nanos);
            h.finish()
        };
        ((word(0x9e37_79b9) as u128) << 64) | word(0x85eb_ca6b) as u128
    }
}

impl SidSource for EntropySource {
    fn next_sid(&self) -> u128 {
        EntropySource::os_entropy().unwrap_or_else(EntropySource::mixed_entropy)
    }
}

/// A deterministic source for tests: a seeded splitmix64 stream.
///
/// Two `SeededSource`s with the same seed produce the same sid sequence —
/// never use it outside tests.
#[derive(Debug)]
pub struct SeededSource {
    state: AtomicU64,
}

impl SeededSource {
    /// A source replaying the stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SeededSource {
            state: AtomicU64::new(seed),
        }
    }
}

impl SidSource for SeededSource {
    fn next_sid(&self) -> u128 {
        let mut z = self
            .state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let lo = z ^ (z >> 31);
        ((lo.rotate_left(32) as u128) << 64) | lo as u128
    }
}

/// A monotonic-enough clock for session expiry, in whole seconds.
///
/// Injectable like [`SidSource`]: the default reads the system clock;
/// tests drive a hand-advanced clock so expiry is deterministic.
pub(crate) trait SessionClock: Send + Sync {
    /// Seconds since some fixed epoch.
    fn now(&self) -> u64;
}

/// The default clock: seconds since the Unix epoch.
#[derive(Debug, Default)]
pub(crate) struct SystemClock;

impl SessionClock for SystemClock {
    fn now(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// Default session lifetime: 24 hours.
pub(crate) const DEFAULT_SESSION_TTL: u64 = 24 * 60 * 60;

/// One bounded expiry sweep runs per this many cookie resolves.
pub(crate) const SWEEP_INTERVAL: u64 = 64;

/// How many map entries one opportunistic sweep examines at most.
const SWEEP_BATCH: usize = 128;

#[derive(Debug, Clone)]
struct Session {
    user: String,
    expires_at: u64,
}

/// A minimal, concurrently-shareable session store with TTL expiry.
pub struct SessionStore {
    sessions: RwLock<BTreeMap<String, Session>>,
    source: Box<dyn SidSource>,
    clock: Box<dyn SessionClock>,
    ttl: u64,
    /// Resolves since open; every [`SWEEP_INTERVAL`]th one sweeps.
    resolves: AtomicU64,
    /// Where the next opportunistic sweep resumes (empty = map start),
    /// so successive sweeps cover the whole map in bounded slices.
    sweep_cursor: Mutex<String>,
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("sessions", &self.len())
            .field("ttl", &self.ttl)
            .finish()
    }
}

impl Default for SessionStore {
    fn default() -> Self {
        SessionStore::new()
    }
}

impl SessionStore {
    /// An empty store backed by `EntropySource`, the system clock, and
    /// the default TTL (`DEFAULT_SESSION_TTL`).
    pub fn new() -> Self {
        SessionStore::with_source(Box::new(EntropySource))
    }

    /// An empty store drawing sids from `source` (tests inject
    /// [`SeededSource`] here).
    pub fn with_source(source: Box<dyn SidSource>) -> Self {
        SessionStore::with_config(source, Box::new(SystemClock), DEFAULT_SESSION_TTL)
    }

    /// Full control over sid source, clock, and TTL (seconds).
    pub(crate) fn with_config(
        source: Box<dyn SidSource>,
        clock: Box<dyn SessionClock>,
        ttl: u64,
    ) -> Self {
        SessionStore {
            sessions: RwLock::new(BTreeMap::new()),
            source,
            clock,
            ttl,
            resolves: AtomicU64::new(0),
            sweep_cursor: Mutex::new(String::new()),
        }
    }

    // The map is always internally consistent (every write is one insert or
    // remove), so a poisoned lock is recoverable (see `resin_core::sync`).
    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Session>> {
        rlock(&self.sessions)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Session>> {
        wlock(&self.sessions)
    }

    /// Starts a session for `user`, returning the session id. Expired
    /// sessions are swept out here, so the map never outgrows the logins
    /// of the last TTL window.
    pub fn login(&self, user: &str) -> String {
        let sid = format!("sid-{:032x}", self.source.next_sid());
        let now = self.clock.now();
        let mut map = self.write();
        map.retain(|_, s| s.expires_at > now);
        map.insert(
            sid.clone(),
            Session {
                user: user.to_string(),
                expires_at: now.saturating_add(self.ttl),
            },
        );
        sid
    }

    /// Resolves a session cookie to a user name; expired sessions resolve
    /// to `None` exactly like unknown ones.
    ///
    /// Works on tainted cookies: equality ignores taint, and the returned
    /// user name is server data, not user input.
    pub fn user_for(&self, sid: &TaintedString) -> Option<String> {
        let now = self.clock.now();
        let user = self
            .read()
            .get(sid.as_str())
            .filter(|s| s.expires_at > now)
            .map(|s| s.user.clone());
        // Amortized eviction for read-only workloads: without this, a
        // server that stops seeing logins holds expired sessions forever
        // (login is the only other sweeper).
        if self.resolves.fetch_add(1, Ordering::Relaxed) % SWEEP_INTERVAL == SWEEP_INTERVAL - 1 {
            self.sweep_slice(now);
        }
        user
    }

    /// Removes expired entries from one bounded slice of the map,
    /// starting at the rotating cursor. O([`SWEEP_BATCH`]) worst case.
    fn sweep_slice(&self, now: u64) {
        let from = mlock(&self.sweep_cursor).clone();
        let mut map = self.write();
        let mut expired = Vec::new();
        let mut next_cursor = String::new(); // empty: wrapped to the start
        for (examined, (k, s)) in map.range(from..).enumerate() {
            if examined == SWEEP_BATCH {
                next_cursor = k.clone();
                break;
            }
            if s.expires_at <= now {
                expired.push(k.clone());
            }
        }
        for k in &expired {
            map.remove(k);
        }
        drop(map);
        *mlock(&self.sweep_cursor) = next_cursor;
    }

    /// Ends a session. Returns `false` for unknown *and* already-expired
    /// sids — an expired session is gone for every observer.
    pub fn logout(&self, sid: &str) -> bool {
        let now = self.clock.now();
        match self.write().remove(sid) {
            Some(s) => s.expires_at > now,
            None => false,
        }
    }

    /// Number of live (unexpired) sessions.
    pub fn len(&self) -> usize {
        let now = self.clock.now();
        self.read().values().filter(|s| s.expires_at > now).count()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn login_resolve_logout() {
        let s = SessionStore::new();
        let sid = s.login("alice");
        assert_eq!(
            s.user_for(&TaintedString::from(sid.as_str())),
            Some("alice".to_string())
        );
        assert!(s.logout(&sid));
        assert!(!s.logout(&sid));
        assert!(s.is_empty());
    }

    #[test]
    fn unknown_sid_is_none() {
        let s = SessionStore::new();
        assert_eq!(s.user_for(&TaintedString::from("nope")), None);
    }

    #[test]
    fn sids_are_distinct() {
        let s = SessionStore::new();
        let a = s.login("a");
        let b = s.login("a");
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn two_stores_never_overlap() {
        // The old counter-based generator made every store emit the same
        // guessable sequence; real entropy must not collide across stores.
        let a = SessionStore::new();
        let b = SessionStore::new();
        let sids_a: BTreeSet<String> = (0..64).map(|_| a.login("u")).collect();
        let sids_b: BTreeSet<String> = (0..64).map(|_| b.login("u")).collect();
        assert_eq!(sids_a.len(), 64, "no collisions within a store");
        assert_eq!(sids_b.len(), 64);
        assert!(
            sids_a.is_disjoint(&sids_b),
            "two stores must not produce overlapping sid sequences"
        );
    }

    #[test]
    fn seeded_source_is_deterministic() {
        let a = SessionStore::with_source(Box::new(SeededSource::new(42)));
        let b = SessionStore::with_source(Box::new(SeededSource::new(42)));
        let seq_a: Vec<String> = (0..8).map(|_| a.login("u")).collect();
        let seq_b: Vec<String> = (0..8).map(|_| b.login("u")).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        let c = SessionStore::with_source(Box::new(SeededSource::new(43)));
        assert_ne!(seq_a[0], c.login("u"), "different seed diverges");
    }

    fn ttl_store(ttl: u64) -> (SessionStore, std::sync::Arc<ManualClock>) {
        let clock = std::sync::Arc::new(ManualClock::new(1_000));
        let store = SessionStore::with_config(
            Box::new(SeededSource::new(7)),
            Box::new(ClockHandle(clock.clone())),
            ttl,
        );
        (store, clock)
    }

    /// A hand-advanced clock for tests.
    #[derive(Debug, Default)]
    struct ManualClock {
        now: AtomicU64,
    }

    impl ManualClock {
        /// A clock starting at `now` seconds.
        fn new(now: u64) -> Self {
            ManualClock {
                now: AtomicU64::new(now),
            }
        }

        /// Moves the clock forward by `secs`.
        fn advance(&self, secs: u64) {
            self.now.fetch_add(secs, Ordering::Relaxed);
        }
    }

    impl SessionClock for ManualClock {
        fn now(&self) -> u64 {
            self.now.load(Ordering::Relaxed)
        }
    }

    /// Adapter: share one [`ManualClock`] between test and store.
    #[derive(Debug)]
    struct ClockHandle(std::sync::Arc<ManualClock>);
    impl SessionClock for ClockHandle {
        fn now(&self) -> u64 {
            self.0.now()
        }
    }

    #[test]
    fn sessions_expire_after_ttl() {
        let (s, clock) = ttl_store(60);
        let sid = s.login("alice");
        let cookie = TaintedString::from(sid.as_str());
        assert_eq!(s.user_for(&cookie), Some("alice".to_string()));
        clock.advance(59);
        assert_eq!(s.user_for(&cookie), Some("alice".to_string()), "still live");
        clock.advance(1);
        assert_eq!(s.user_for(&cookie), None, "expired at the deadline");
        assert!(s.is_empty());
        assert!(!s.logout(&sid), "expired sessions are gone for logout too");
    }

    #[test]
    fn login_sweeps_expired_sessions() {
        // The unbounded-growth bug: without eviction, every login since
        // boot stayed in the map forever.
        let (s, clock) = ttl_store(60);
        for i in 0..50 {
            s.login(&format!("old-{i}"));
        }
        clock.advance(61);
        s.login("fresh");
        assert_eq!(s.len(), 1, "live count");
        assert_eq!(
            rlock(&s.sessions).len(),
            1,
            "expired entries physically evicted, not just hidden"
        );
    }

    #[test]
    fn sweep_keeps_unexpired_sessions() {
        let (s, clock) = ttl_store(100);
        let early = s.login("early");
        clock.advance(50);
        s.login("late");
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.user_for(&TaintedString::from(early.as_str())),
            Some("early".to_string())
        );
    }

    #[test]
    fn read_only_workload_evicts_expired_sessions() {
        // The resolve-path sweep: no further logins, only lookups — the
        // expired entries must still be physically removed.
        let (s, clock) = ttl_store(60);
        for i in 0..50 {
            s.login(&format!("u-{i}"));
        }
        clock.advance(61);
        let ghost = TaintedString::from("sid-unknown");
        for _ in 0..SWEEP_INTERVAL {
            assert_eq!(s.user_for(&ghost), None);
        }
        assert_eq!(
            rlock(&s.sessions).len(),
            0,
            "opportunistic sweep evicts without any login"
        );
    }

    #[test]
    fn resolve_sweep_covers_whole_map_in_slices() {
        // More entries than one sweep batch: successive sweeps rotate the
        // cursor until everything expired is gone.
        let (s, clock) = ttl_store(60);
        for i in 0..300 {
            s.login(&format!("u-{i:03}"));
        }
        clock.advance(61);
        let ghost = TaintedString::from("sid-unknown");
        // 300 entries / 128-per-sweep → 3 sweeps + one wrap; drive plenty.
        for _ in 0..SWEEP_INTERVAL * 6 {
            s.user_for(&ghost);
        }
        assert_eq!(rlock(&s.sessions).len(), 0, "cursor rotation reaches all");
    }

    #[test]
    fn resolve_sweep_spares_live_sessions() {
        let (s, clock) = ttl_store(100);
        let live = s.login("live");
        for i in 0..20 {
            s.login(&format!("dead-{i}"));
        }
        // `live` expires at 1100; push the dead ones out first is not
        // possible with one shared TTL, so re-login `live` later instead.
        clock.advance(90);
        let live2 = s.login("live");
        clock.advance(20); // first batch (incl. `live`) expired, live2 not
        let ghost = TaintedString::from("sid-unknown");
        for _ in 0..SWEEP_INTERVAL {
            s.user_for(&ghost);
        }
        assert_eq!(rlock(&s.sessions).len(), 1, "only live2 remains");
        assert_eq!(
            s.user_for(&TaintedString::from(live2.as_str())),
            Some("live".to_string())
        );
        assert_eq!(s.user_for(&TaintedString::from(live.as_str())), None);
    }

    #[test]
    fn concurrent_logins_all_land() {
        let s = std::sync::Arc::new(SessionStore::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    (0..16)
                        .map(|i| s.login(&format!("user-{t}-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = BTreeSet::new();
        for h in handles {
            for sid in h.join().unwrap() {
                assert!(all.insert(sid), "cross-thread sid collision");
            }
        }
        assert_eq!(s.len(), 64);
    }
}
