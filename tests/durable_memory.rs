//! What the durable boundary costs in memory, as counts (a resident-set
//! reading would move with the allocator and the host): the peak of live
//! heap bytes while a forum table of 20 000 posts is checkpointed, and
//! while it is recovered, above what each holds before and after. A part
//! image streams to and from its file through one 64 KiB window, so
//! neither costs the image: each stays under 1 MiB, where holding the
//! image whole would cost a multiple of the part's 13 MB.
//!
//! In a process of its own, with one test: the counting allocator is the
//! process's allocator, and its counters are global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use resin::apps::ForumApp;
use resin::core::{TaintedString, UntrustedData};
use resin::web::SessionStore;

struct PeakLive;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is two atomic counters, which allocate nothing.
unsafe impl GlobalAlloc for PeakLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves:
        // a moving realloc holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakLive = PeakLive;

/// Runs `f`, returning its result, the live bytes before and after it,
/// and the peak of live bytes while it ran.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let after = LIVE.load(Ordering::Relaxed);
    (out, before, after, PEAK.load(Ordering::Relaxed))
}

const POSTS: usize = 20_000;
const MIB: usize = 1 << 20;

/// A forum post of about the benchmark's 563 user bytes: a plain prefix
/// and a body tainted as an HTTP parameter, varying with `i`.
fn post(i: usize) -> TaintedString {
    let mut body = TaintedString::from(format!("post {i}: ").as_str());
    let words = ["lorem", "ipsum", "dolor", "sit", "amet", "consectetur"];
    let text: String = (0..90)
        .map(|k| words[(i * 7 + k * 13) % words.len()])
        .collect::<Vec<_>>()
        .join(" ");
    body.push_tainted(&TaintedString::with_policy(
        &text,
        Arc::new(UntrustedData::from_source("http_param")),
    ));
    body
}

fn part_files(dir: &Path) -> Vec<(String, u64)> {
    let mut parts: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("part."))
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    parts.sort();
    parts
}

#[test]
fn checkpoint_and_recovery_stream_their_parts() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("resin-durable-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sessions = Arc::new(SessionStore::new());

    let app = ForumApp::open(&dir, Arc::clone(&sessions)).unwrap();
    app.db().set_wal_sync(false);
    for i in 0..POSTS {
        app.seed_post(&post(i));
    }

    // The checkpoint encodes the posts table straight into its part file.
    let (done, before, _, peak) = measured(|| app.checkpoint());
    done.unwrap();
    let parts = part_files(&dir);
    let part_len: u64 = parts.iter().map(|(_, len)| len).sum();
    println!(
        "checkpoint: peak {} B above {before} B; parts {parts:?}",
        peak - before
    );
    assert!(
        peak - before <= MIB,
        "a checkpoint of a {part_len}-byte part held {} bytes above its start",
        peak - before
    );
    // The at-rest format did not move: the same posts make the same part.
    assert_eq!(parts.len(), 1, "{parts:?}");
    assert_eq!(part_len, 13_029_187, "the part's length moved");
    drop(app);

    // The reopen decodes it from the file through one window: what it
    // holds at its peak is the recovered table, and no image beside it.
    let (app, _, after, peak) = measured(|| ForumApp::open(&dir, Arc::clone(&sessions)).unwrap());
    println!(
        "reopen: peak {} B above the {after} B it keeps",
        peak - after
    );
    assert!(
        peak - after <= MIB,
        "a reopen of a {part_len}-byte part peaked {} bytes above the state it keeps",
        peak - after
    );
    assert_eq!(
        app.db()
            .query_str("SELECT id FROM posts")
            .unwrap()
            .rows
            .len(),
        POSTS
    );
    drop(app);
    std::fs::remove_dir_all(&dir).unwrap();
}
