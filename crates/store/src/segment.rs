//! WAL segment naming and discovery.
//!
//! The log is a sequence of size-capped files `wal.000001`, `wal.000002`,
//! … inside the store directory. Segment indexes are monotonic and never
//! reused: rotation opens the next index, checkpoint compaction deletes
//! every index below the active one. Record framing inside a segment is
//! unchanged ([`crate::wal`]); the segmented log as a whole is the
//! concatenation of its segments in index order, so the torn-tail
//! contract extends naturally: recovery scans segments in order and keeps
//! the longest valid prefix, truncating the torn segment and discarding
//! any segments after it.

use std::path::{Path, PathBuf};

use crate::error::Result;

/// File-name prefix shared by every segment (`wal.NNNNNN`).
pub(crate) const SEGMENT_PREFIX: &str = "wal.";

/// The file name of segment `index` (indexes start at 1).
pub fn segment_file_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:06}")
}

/// The path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(segment_file_name(index))
}

/// Parses a segment index out of a file name; `None` for any name
/// [`segment_file_name`] does not write (so `wal.bin`, `wal.lock` and
/// `wal.42` are never mistaken for segments).
pub fn parse_segment_index(name: &str) -> Option<u64> {
    let index = name.strip_prefix(SEGMENT_PREFIX)?.parse().ok()?;
    (segment_file_name(index) == name).then_some(index)
}

/// Lists the segments present in `dir`, sorted by index.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = parse_segment_index(name) {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(segment_file_name(1), "wal.000001");
        assert_eq!(segment_file_name(42), "wal.000042");
        assert_eq!(parse_segment_index("wal.000042"), Some(42));
        assert_eq!(parse_segment_index("wal.1000000"), Some(1_000_000));
        assert_eq!(parse_segment_index("wal.bin"), None);
        assert_eq!(parse_segment_index("wal.lock"), None);
        assert_eq!(parse_segment_index("wal."), None);
        assert_eq!(parse_segment_index("snapshot.bin"), None);
    }

    #[test]
    fn a_segment_name_has_one_spelling() {
        for other in ["wal.42", "wal.0000042", "wal.+00042", "wal.00004x"] {
            assert_eq!(parse_segment_index(other), None, "{other}");
        }
    }

    #[test]
    fn listing_sorts_by_index() {
        let dir = std::env::temp_dir().join(format!("resin-seg-list-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for i in [3u64, 1, 2] {
            std::fs::write(segment_path(&dir, i), b"x").unwrap();
        }
        std::fs::write(dir.join("wal.lock"), b"").unwrap();
        let got: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
