//! The virtual filesystem.
//!
//! An in-memory tree of files and directories with per-node extended
//! attributes. The RESIN integration lives in two xattrs:
//!
//! * `user.resin.policy` — the serialized byte-range policies of a file's
//!   content. The default file filter writes it on every file write and
//!   revives the policies on every read (§3.4.1). Policies are tracked at
//!   byte granularity, exactly as for strings.
//! * `user.resin.filter` — serialized persistent filter objects guarding
//!   the file or directory (§3.2.3), invoked when data flows into/out of
//!   the file or when the directory is modified.
//!
//! Filter scoping: the *nearest* ancestor (or the node itself) that carries
//! filters decides; deeper filters override shallower ones. This models
//! attaching a filter to "the files and directory that represent a wiki
//! page" while letting applications carve out per-user subtrees.

use std::collections::BTreeMap;

use resin_core::{
    deserialize_spans, serialize_spans, Context, FlowError, FnFilter, Gate, GateKind, Runtime,
    TaintedString,
};
use resin_store::{SnapshotReader, SnapshotWriter, Store};

use crate::backend::FsOp;
use crate::error::{Result, VfsError};
use crate::path::{normalize, to_absolute};
use crate::pfilter::{deserialize_filter, serialize_filter, DirOp, GateMount, PersistentFilterRef};

/// xattr key holding a file's serialized content policies.
pub const XATTR_POLICY: &str = "user.resin.policy";
/// xattr key holding a node's serialized persistent filters.
pub const XATTR_FILTER: &str = "user.resin.filter";

/// The checkpoint part holding the whole tree, a durable vfs store's one
/// part. The name is part of the on-disk format: every vfs store on disk
/// holds its tree under it.
const TREE_PART: &str = "__image__";

/// Whether the runtime performs RESIN data tracking on file I/O.
///
/// `Off` models the unmodified interpreter (Table 5 column 1): policies are
/// silently dropped on write and never revived on read, and persistent
/// filters are not consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingMode {
    /// Unmodified runtime: no serialization, no filters.
    Off,
    /// RESIN runtime: persistent policies and filters active.
    #[default]
    On,
}

#[derive(Debug, Default, Clone)]
struct FileNode {
    content: String,
    xattrs: BTreeMap<String, String>,
}

#[derive(Debug, Default, Clone)]
struct DirNode {
    children: BTreeMap<String, Node>,
    xattrs: BTreeMap<String, String>,
}

#[derive(Debug, Clone)]
enum Node {
    File(FileNode),
    Dir(DirNode),
}

impl Node {
    fn xattrs(&self) -> &BTreeMap<String, String> {
        match self {
            Node::File(f) => &f.xattrs,
            Node::Dir(d) => &d.xattrs,
        }
    }

    fn xattrs_mut(&mut self) -> &mut BTreeMap<String, String> {
        match self {
            Node::File(f) => &mut f.xattrs,
            Node::Dir(d) => &mut d.xattrs,
        }
    }
}

/// A validated open file: the product of [`Vfs::open`].
///
/// Opening resolves the path and parses the policy/filter xattrs once, so
/// the open call carries the validation cost the paper measures in Table 5.
#[derive(Debug, Clone)]
pub struct OpenFile {
    components: Vec<String>,
    path: String,
}

impl OpenFile {
    /// The normalized absolute path of the open file.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// The filesystem: an in-memory working tree, optionally over a durable
/// [`resin_store::Store`].
///
/// [`Vfs::new`] keeps everything in memory (the seed behaviour);
/// [`Vfs::open_disk`] attaches a store, after which every committed
/// mutation is WAL-logged post-guard (see [`FsOp`]), and
/// [`checkpoint`](Vfs::checkpoint) folds the log into an atomic image of
/// the tree whose policy xattrs are deduplicated through the image's
/// shared policy table. Reopening the same directory — even after a crash
/// with a torn WAL tail — recovers every file, xattr, persistent filter,
/// and byte-range policy.
#[derive(Debug)]
pub struct Vfs {
    root: DirNode,
    mode: TrackingMode,
    store: Option<Store>,
    torn_recovery: bool,
    torn_cross_segment: bool,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl Vfs {
    /// A filesystem with RESIN tracking enabled.
    pub fn new() -> Self {
        Vfs::with_mode(TrackingMode::On)
    }

    /// A filesystem with the given tracking mode.
    pub fn with_mode(mode: TrackingMode) -> Self {
        Vfs {
            root: DirNode::default(),
            mode,
            store: None,
            torn_recovery: false,
            torn_cross_segment: false,
        }
    }

    /// Opens (creating if needed) a disk-backed filesystem rooted at
    /// `dir`, recovering the last checkpoint plus the op log's surviving
    /// prefix. Tracking is on — durability exists to keep persistent
    /// policies persistent.
    pub fn open_disk(dir: impl AsRef<std::path::Path>) -> Result<Vfs> {
        let (store, recovered) = Store::open(dir)?;
        let root = match recovered.parts.as_slice() {
            [] => DirNode::default(),
            [(name, image)] if name == TREE_PART => decode_tree(image)?,
            _ => {
                return Err(VfsError::Storage(
                    "checkpoint holds parts other than the tree".into(),
                ));
            }
        };
        drop(recovered.parts);
        let mut fs = Vfs {
            root,
            mode: TrackingMode::On,
            store: None, // replay must not re-log
            torn_recovery: recovered.torn_tail,
            torn_cross_segment: recovered.torn_cross_segment,
        };
        if !recovered.records.is_empty() {
            // The replayed ops post-date the checkpoint: the tree is ahead
            // of its image until the next checkpoint folds them in.
            store.mark_dirty(TREE_PART);
        }
        for payload in recovered.records {
            fs.apply_op(&FsOp::decode(&payload)?)?;
        }
        fs.store = Some(store);
        Ok(fs)
    }

    /// True when this open discarded a torn WAL tail: the tree is
    /// consistent, but acknowledged-but-unsynced ops from the crashed
    /// process may have been lost — worth logging or alerting on.
    pub fn recovered_from_torn_wal(&self) -> bool {
        self.torn_recovery
    }

    /// True when the torn tail spanned a WAL segment boundary, so
    /// recovery dropped one or more whole later segments — a wider loss
    /// window than one in-flight append.
    pub fn recovered_torn_cross_segment(&self) -> bool {
        self.torn_cross_segment
    }

    /// Live storage counters of the underlying store, or `None` for an
    /// in-memory tree.
    pub fn store_stats(&self) -> Option<resin_store::StoreStats> {
        self.store.as_ref().map(Store::stats)
    }

    /// The active tracking mode.
    pub fn mode(&self) -> TrackingMode {
        self.mode
    }

    /// True when a durable store persists this tree.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Folds the op log into a fresh image of the tree (no-op in memory).
    /// The store writes nothing when no op was logged since the last
    /// checkpoint — its image already equals the tree, so a periodic
    /// checkpointer on an idle filesystem costs nothing.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let root = &self.root;
        store.checkpoint_parts([(TREE_PART.to_string(), || encode_tree(root))])
    }

    /// Re-applies one recovered op to the raw tree. The op was committed
    /// post-guard before the crash, so no filter or gate re-runs; a
    /// failure here means the checkpoint and log disagree (real corruption)
    /// and surfaces as an error from [`Vfs::open_disk`].
    fn apply_op(&mut self, op: &FsOp) -> Result<()> {
        match op {
            FsOp::Mkdir { path } => {
                let comps = normalize(path)?;
                let mut done: Vec<String> = Vec::new();
                for c in comps {
                    self.get_dir_mut(&done)?
                        .children
                        .entry(c.clone())
                        .or_insert_with(|| Node::Dir(DirNode::default()));
                    done.push(c);
                }
            }
            FsOp::Write {
                path,
                content,
                policy,
            } => {
                let comps = normalize(path)?;
                let (parent, name) = match comps.split_last() {
                    Some((n, p)) => (p.to_vec(), n.clone()),
                    None => return Err(VfsError::InvalidPath(path.clone())),
                };
                let dir = self.get_dir_mut(&parent)?;
                let node = dir
                    .children
                    .entry(name)
                    .or_insert_with(|| Node::File(FileNode::default()));
                let Node::File(file) = node else {
                    return Err(VfsError::IsADirectory(path.clone()));
                };
                file.content = content.clone();
                match policy {
                    Some(p) => {
                        file.xattrs.insert(XATTR_POLICY.to_string(), p.clone());
                    }
                    None => {
                        file.xattrs.remove(XATTR_POLICY);
                    }
                }
            }
            FsOp::Unlink { path } => {
                let comps = normalize(path)?;
                let (parent, name) = match comps.split_last() {
                    Some((n, p)) => (p.to_vec(), n.clone()),
                    None => return Err(VfsError::InvalidPath(path.clone())),
                };
                self.get_dir_mut(&parent)?.children.remove(&name);
            }
            FsOp::Rename { from, to } => {
                let fc = normalize(from)?;
                let tc = normalize(to)?;
                let (fparent, fname) = match fc.split_last() {
                    Some((n, p)) => (p.to_vec(), n.clone()),
                    None => return Err(VfsError::InvalidPath(from.clone())),
                };
                let (tparent, tname) = match tc.split_last() {
                    Some((n, p)) => (p.to_vec(), n.clone()),
                    None => return Err(VfsError::InvalidPath(to.clone())),
                };
                let node = self
                    .get_dir_mut(&fparent)?
                    .children
                    .remove(&fname)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?;
                self.get_dir_mut(&tparent)?.children.insert(tname, node);
            }
            FsOp::SetXattr { path, key, value } => {
                let comps = normalize(path)?;
                let xattrs = if comps.is_empty() {
                    &mut self.root.xattrs
                } else {
                    self.get_node_mut(&comps)
                        .ok_or_else(|| VfsError::NotFound(path.clone()))?
                        .xattrs_mut()
                };
                xattrs.insert(key.clone(), value.clone());
            }
            FsOp::RemoveXattr { path, key } => {
                let comps = normalize(path)?;
                let xattrs = if comps.is_empty() {
                    &mut self.root.xattrs
                } else {
                    self.get_node_mut(&comps)
                        .ok_or_else(|| VfsError::NotFound(path.clone()))?
                        .xattrs_mut()
                };
                xattrs.remove(key);
            }
        }
        Ok(())
    }

    /// A file-gate context with no authenticated user.
    ///
    /// Resolved from the global [`Runtime`]'s file gate, so registry-level
    /// annotations on the file surface reach every vfs operation.
    pub fn anonymous_ctx() -> Context {
        Runtime::global().open(GateKind::File).into_context()
    }

    /// A file-gate context for an authenticated `user`.
    pub fn user_ctx(user: &str) -> Context {
        let mut c = Self::anonymous_ctx();
        c.set_str("user", user);
        c
    }

    // ---- node lookup ----

    fn get_node(&self, comps: &[String]) -> Option<&Node> {
        let mut dir = &self.root;
        let (last, body) = comps.split_last()?;
        for c in body {
            match dir.children.get(c) {
                Some(Node::Dir(d)) => dir = d,
                _ => return None,
            }
        }
        dir.children.get(last)
    }

    fn get_node_mut(&mut self, comps: &[String]) -> Option<&mut Node> {
        let mut dir = &mut self.root;
        let (last, body) = comps.split_last()?;
        for c in body {
            match dir.children.get_mut(c) {
                Some(Node::Dir(d)) => dir = d,
                _ => return None,
            }
        }
        dir.children.get_mut(last)
    }

    fn get_dir_mut(&mut self, comps: &[String]) -> Result<&mut DirNode> {
        let mut dir = &mut self.root;
        for c in comps {
            match dir.children.get_mut(c) {
                Some(Node::Dir(d)) => dir = d,
                Some(Node::File(_)) => {
                    return Err(VfsError::NotADirectory(to_absolute(comps)));
                }
                None => return Err(VfsError::NotFound(to_absolute(comps))),
            }
        }
        Ok(dir)
    }

    /// Filters at exactly this node (deserialized). Empty vec when none.
    fn filters_on(&self, comps: &[String]) -> Result<Vec<PersistentFilterRef>> {
        let xattr = if comps.is_empty() {
            self.root.xattrs.get(XATTR_FILTER)
        } else {
            self.get_node(comps)
                .and_then(|n| n.xattrs().get(XATTR_FILTER))
        };
        let Some(serialized) = xattr else {
            return Ok(Vec::new());
        };
        serialized.lines().map(deserialize_filter).collect()
    }

    /// The nearest governing filters for a node: its own, else the closest
    /// ancestor's.
    fn governing_filters(&self, comps: &[String]) -> Result<Vec<PersistentFilterRef>> {
        if self.mode == TrackingMode::Off {
            return Ok(Vec::new());
        }
        for depth in (0..=comps.len()).rev() {
            let fs = self.filters_on(&comps[..depth])?;
            if !fs.is_empty() {
                return Ok(fs);
            }
        }
        Ok(Vec::new())
    }

    /// The data-flow gate for one file operation: the registry's file gate
    /// (unguarded — persistence is this crate's job), carrying the caller's
    /// context plus the file path, with every governing persistent filter
    /// mounted on the chain.
    fn file_gate(&self, comps: &[String], path: &str, ctx: &Context) -> Result<Gate> {
        let mut gate = Runtime::global().open(GateKind::File);
        // Merge the caller's entries over the registry-configured context
        // (rather than replacing it), so registry-level file-surface
        // annotations still reach every filter.
        for (key, value) in ctx.iter() {
            gate.context_mut().set(key, value.clone());
        }
        gate.context_mut().set_str("path", path);
        for f in self.governing_filters(comps)? {
            gate.add_filter(Box::new(GateMount::new(f, path)));
        }
        Ok(gate)
    }

    /// The caller's context merged over the registry-configured file-gate
    /// context, so registry-level annotations reach every filter hook.
    fn merged_file_ctx(ctx: &Context) -> Context {
        let mut merged = Runtime::global().open(GateKind::File).into_context();
        for (key, value) in ctx.iter() {
            merged.set(key, value.clone());
        }
        merged
    }

    fn check_dir_op_allowed(
        &self,
        parent: &[String],
        op: DirOp,
        entry: &str,
        ctx: &Context,
    ) -> Result<()> {
        let filters = self.governing_filters(parent)?;
        if filters.is_empty() {
            return Ok(());
        }
        let merged = Self::merged_file_ctx(ctx);
        for f in filters {
            f.check_dir_op(op, entry, &merged)
                .map_err(|v| VfsError::Policy(FlowError::Denied(v)))?;
        }
        Ok(())
    }

    /// Logs `op` to the store of a durable tree, whose image it dirties;
    /// an in-memory tree skips even the op's construction (path/content
    /// allocations stay off the hot path).
    fn journal(&self, op: impl FnOnce() -> FsOp) -> Result<()> {
        if let Some(store) = &self.store {
            store.append(&op().encode())?;
            store.mark_dirty(TREE_PART);
        }
        Ok(())
    }

    // ---- directory operations ----

    /// Creates a directory and all missing ancestors.
    pub fn mkdir_p(&mut self, path: &str, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        let mut done: Vec<String> = Vec::new();
        for c in comps {
            let exists = matches!(
                self.get_dir_mut(&done)?.children.get(&c),
                Some(Node::Dir(_))
            );
            if !exists {
                if let Some(Node::File(_)) = self.get_dir_mut(&done)?.children.get(&c) {
                    done.push(c);
                    return Err(VfsError::NotADirectory(to_absolute(&done)));
                }
                self.check_dir_op_allowed(&done, DirOp::Create, &c, ctx)?;
                self.journal(|| {
                    let mut full = done.clone();
                    full.push(c.clone());
                    FsOp::Mkdir {
                        path: to_absolute(&full),
                    }
                })?;
                self.get_dir_mut(&done)?
                    .children
                    .insert(c.clone(), Node::Dir(DirNode::default()));
            }
            done.push(c);
        }
        Ok(())
    }

    /// Lists a directory's entries as `(name, is_dir)` pairs, sorted.
    pub fn list_dir(&self, path: &str) -> Result<Vec<(String, bool)>> {
        let comps = normalize(path)?;
        let dir = if comps.is_empty() {
            &self.root
        } else {
            match self.get_node(&comps) {
                Some(Node::Dir(d)) => d,
                Some(Node::File(_)) => return Err(VfsError::NotADirectory(path.to_string())),
                None => return Err(VfsError::NotFound(path.to_string())),
            }
        };
        Ok(dir
            .children
            .iter()
            .map(|(name, node)| (name.clone(), matches!(node, Node::Dir(_))))
            .collect())
    }

    /// True if a file or directory exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        match normalize(path) {
            Ok(c) if c.is_empty() => true,
            Ok(c) => self.get_node(&c).is_some(),
            Err(_) => false,
        }
    }

    /// True if a directory exists at `path`.
    pub fn is_dir(&self, path: &str) -> bool {
        match normalize(path) {
            Ok(c) if c.is_empty() => true,
            Ok(c) => matches!(self.get_node(&c), Some(Node::Dir(_))),
            Err(_) => false,
        }
    }

    /// Deletes a file or empty directory.
    pub fn unlink(&mut self, path: &str, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        let (parent, name) = match comps.split_last() {
            Some((n, p)) => (p.to_vec(), n.clone()),
            None => return Err(VfsError::InvalidPath(path.to_string())),
        };
        match self.get_node(&comps) {
            None => return Err(VfsError::NotFound(path.to_string())),
            Some(Node::Dir(d)) if !d.children.is_empty() => {
                return Err(VfsError::IsADirectory(path.to_string()));
            }
            _ => {}
        }
        // Deleting is a write to the file and a dir-op on the parent
        // (tracking off bypasses the gate, like write_file/read_file).
        if self.mode == TrackingMode::On {
            self.file_gate(&comps, path, ctx)?
                .export(TaintedString::new())
                .map_err(VfsError::from)?;
            self.check_dir_op_allowed(&parent, DirOp::Delete, &name, ctx)?;
        }
        self.journal(|| FsOp::Unlink {
            path: to_absolute(&comps),
        })?;
        self.get_dir_mut(&parent)?.children.remove(&name);
        Ok(())
    }

    /// Renames `from` to `to` (both full paths).
    pub fn rename(&mut self, from: &str, to: &str, ctx: &Context) -> Result<()> {
        let fc = normalize(from)?;
        let tc = normalize(to)?;
        let (fparent, fname) = match fc.split_last() {
            Some((n, p)) => (p.to_vec(), n.clone()),
            None => return Err(VfsError::InvalidPath(from.to_string())),
        };
        let (tparent, tname) = match tc.split_last() {
            Some((n, p)) => (p.to_vec(), n.clone()),
            None => return Err(VfsError::InvalidPath(to.to_string())),
        };
        if self.get_node(&fc).is_none() {
            return Err(VfsError::NotFound(from.to_string()));
        }
        if self.get_node(&tc).is_some() {
            return Err(VfsError::AlreadyExists(to.to_string()));
        }
        self.check_dir_op_allowed(&fparent, DirOp::Rename, &fname, ctx)?;
        self.check_dir_op_allowed(&tparent, DirOp::Create, &tname, ctx)?;
        // Validate the destination parent *before* detaching the node: a
        // rename into a missing directory must fail cleanly, not drop the
        // source node on the floor — and must leave no op in the WAL,
        // whose replay would brick every future open.
        self.check_is_dir(&tparent)?;
        let node = self
            .get_dir_mut(&fparent)?
            .children
            .remove(&fname)
            .expect("checked above");
        self.get_dir_mut(&tparent)?
            .children
            .insert(tname.clone(), node);
        if let Err(e) = self.journal(|| FsOp::Rename {
            from: to_absolute(&fc),
            to: to_absolute(&tc),
        }) {
            // Un-move: a rename the WAL never recorded must not be
            // observable, or a restart would silently undo it.
            let node = self
                .get_dir_mut(&tparent)?
                .children
                .remove(&tname)
                .expect("inserted above");
            self.get_dir_mut(&fparent)?.children.insert(fname, node);
            return Err(e);
        }
        Ok(())
    }

    /// Immutable twin of [`get_dir_mut`](Vfs::get_dir_mut)'s validation:
    /// errors exactly when that walk would, without touching the tree.
    fn check_is_dir(&self, comps: &[String]) -> Result<()> {
        let mut dir = &self.root;
        for c in comps {
            match dir.children.get(c) {
                Some(Node::Dir(d)) => dir = d,
                Some(Node::File(_)) => {
                    return Err(VfsError::NotADirectory(to_absolute(comps)));
                }
                None => return Err(VfsError::NotFound(to_absolute(comps))),
            }
        }
        Ok(())
    }

    // ---- file I/O ----

    /// Opens a file, validating its path and RESIN xattrs.
    pub fn open(&self, path: &str) -> Result<OpenFile> {
        let components = normalize(path)?;
        match self.get_node(&components) {
            Some(Node::File(f)) => {
                if self.mode == TrackingMode::On {
                    // Parse (and thereby validate) the RESIN xattrs; this is
                    // the per-open cost Table 5 measures.
                    if let Some(spans) = f.xattrs.get(XATTR_POLICY) {
                        deserialize_spans(&f.content, spans)?;
                    }
                    if let Some(filters) = f.xattrs.get(XATTR_FILTER) {
                        for line in filters.lines() {
                            deserialize_filter(line)?;
                        }
                    }
                }
                Ok(OpenFile {
                    path: to_absolute(&components),
                    components,
                })
            }
            Some(Node::Dir(_)) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Writes (replaces) a file's content, creating it if needed.
    ///
    /// With tracking on, the content's policies are serialized into the
    /// policy xattr, and persistent filters govern the write.
    pub fn write_file(&mut self, path: &str, data: &TaintedString, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        let (parent, name) = match comps.split_last() {
            Some((n, p)) => (p.to_vec(), n.clone()),
            None => return Err(VfsError::InvalidPath(path.to_string())),
        };
        let creating = self.get_node(&comps).is_none();
        // Route the data through the file gate: governing persistent
        // filters interpose exactly like any other boundary's filters.
        // (Tracking off — the unmodified-runtime baseline — bypasses the
        // gate and borrows the data as-is.)
        let exported;
        let data: &TaintedString = if self.mode == TrackingMode::On {
            let gate = self.file_gate(&comps, path, ctx)?;
            let data = if gate.filter_count() == 0 && gate.rule_count() == 0 {
                // No interposition: skip the identity export and its clone.
                data
            } else {
                exported = gate.export(data.clone()).map_err(VfsError::from)?;
                &exported
            };
            if creating {
                self.check_dir_op_allowed(&parent, DirOp::Create, &name, ctx)?;
            }
            data
        } else {
            data
        };
        let serialized = if self.mode == TrackingMode::On && !data.is_untainted() {
            Some(serialize_spans(data))
        } else {
            None
        };
        let dir = self.get_dir_mut(&parent)?;
        let node = dir
            .children
            .entry(name.clone())
            .or_insert_with(|| Node::File(FileNode::default()));
        let Node::File(file) = node else {
            return Err(VfsError::IsADirectory(path.to_string()));
        };
        // Prior state for the journal-failure revert, captured without
        // copying: the old content moves out (replaced either way) and
        // only the small policy xattr clones.
        let old_content = std::mem::replace(&mut file.content, data.as_str().to_string());
        let old_policy = match &serialized {
            Some(s) => file.xattrs.insert(XATTR_POLICY.to_string(), s.clone()),
            None => file.xattrs.remove(XATTR_POLICY),
        };
        // Logged only after the tree mutation succeeded: a write that
        // errors out (directory in the way, missing parent) must never
        // reach the WAL, where its replay would fail every future
        // `open_disk`. The caller sees `Ok` only once the op is logged,
        // so a crash in between loses nothing that was acknowledged.
        if let Err(e) = self.journal(|| FsOp::Write {
            path: to_absolute(&comps),
            content: data.as_str().to_string(),
            policy: serialized,
        }) {
            // Put the prior state back — the caller must never observe a
            // write the log lacks.
            let dir = self.get_dir_mut(&parent)?;
            if creating {
                dir.children.remove(&name);
            } else if let Some(Node::File(file)) = dir.children.get_mut(&name) {
                file.content = old_content;
                match old_policy {
                    Some(p) => {
                        file.xattrs.insert(XATTR_POLICY.to_string(), p);
                    }
                    None => {
                        file.xattrs.remove(XATTR_POLICY);
                    }
                }
            }
            return Err(e);
        }
        Ok(())
    }

    /// Appends to a file, splicing the new data's policies after the
    /// existing content's (byte-granularity persistence).
    pub fn append_file(&mut self, path: &str, data: &TaintedString, ctx: &Context) -> Result<()> {
        let existing = if self.exists(path) {
            self.read_file(path, ctx)?
        } else {
            TaintedString::new()
        };
        let combined = existing.concat(data);
        self.write_file(path, &combined, ctx)
    }

    /// Reads a file, reviving its persistent policies (tracking on).
    pub fn read_file(&self, path: &str, ctx: &Context) -> Result<TaintedString> {
        let comps = normalize(path)?;
        let file = match self.get_node(&comps) {
            Some(Node::File(f)) => f,
            Some(Node::Dir(_)) => return Err(VfsError::IsADirectory(path.to_string())),
            None => return Err(VfsError::NotFound(path.to_string())),
        };
        if self.mode == TrackingMode::Off {
            return Ok(TaintedString::from(file.content.as_str()));
        }
        // Pull the raw content in through the file gate: the governing
        // mounts authorize the read first, then a revival filter (appended
        // after them) deserializes the persistent policies — so unauthorized
        // readers never trigger (or observe errors from) deserialization.
        let mut gate = self.file_gate(&comps, path, ctx)?;
        if let Some(spans) = file.xattrs.get(XATTR_POLICY) {
            let spans = spans.clone();
            gate.add_filter(Box::new(FnFilter::on_read(move |data, _, _| {
                deserialize_spans(data.as_str(), &spans).map_err(FlowError::from)
            })));
        }
        gate.feed(TaintedString::from(file.content.as_str()));
        Ok(gate
            .read()
            .map_err(VfsError::from)?
            .expect("exactly one datum queued on the gate"))
    }

    /// Reads raw bytes, bypassing policy revival and filters.
    ///
    /// This models a *non*-RESIN-aware consumer (e.g. a stock web server
    /// serving static files); see the myPHPscripts password-disclosure
    /// scenario, where only a RESIN-aware server catches the leak.
    pub fn read_raw(&self, path: &str) -> Result<String> {
        let comps = normalize(path)?;
        match self.get_node(&comps) {
            Some(Node::File(f)) => Ok(f.content.clone()),
            Some(Node::Dir(_)) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Reads through an [`OpenFile`] handle.
    pub fn read_handle(&self, handle: &OpenFile, ctx: &Context) -> Result<TaintedString> {
        self.read_file(&handle.path, ctx)
    }

    /// Writes through an [`OpenFile`] handle.
    pub fn write_handle(
        &mut self,
        handle: &OpenFile,
        data: &TaintedString,
        ctx: &Context,
    ) -> Result<()> {
        let _ = &handle.components;
        self.write_file(&handle.path, data, ctx)
    }

    /// File size in bytes.
    pub fn file_len(&self, path: &str) -> Result<usize> {
        let comps = normalize(path)?;
        match self.get_node(&comps) {
            Some(Node::File(f)) => Ok(f.content.len()),
            Some(Node::Dir(_)) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    // ---- xattrs and persistent filters ----

    /// Sets an extended attribute on a file or directory.
    pub fn set_xattr(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        let comps = normalize(path)?;
        if !comps.is_empty() && self.get_node(&comps).is_none() {
            return Err(VfsError::NotFound(path.to_string()));
        }
        self.journal(|| FsOp::SetXattr {
            path: to_absolute(&comps),
            key: key.to_string(),
            value: value.to_string(),
        })?;
        if comps.is_empty() {
            self.root.xattrs.insert(key.to_string(), value.to_string());
        } else {
            match self.get_node_mut(&comps) {
                Some(n) => {
                    n.xattrs_mut().insert(key.to_string(), value.to_string());
                }
                None => return Err(VfsError::NotFound(path.to_string())),
            }
        }
        Ok(())
    }

    /// Reads an extended attribute.
    pub fn get_xattr(&self, path: &str, key: &str) -> Result<Option<String>> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Ok(self.root.xattrs.get(key).cloned());
        }
        match self.get_node(&comps) {
            Some(n) => Ok(n.xattrs().get(key).cloned()),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Attaches a persistent filter object to a file or directory,
    /// serializing it into the filter xattr (§3.2.3).
    pub fn attach_filter(&mut self, path: &str, filter: &PersistentFilterRef) -> Result<()> {
        let line = serialize_filter(filter);
        let existing = self.get_xattr(path, XATTR_FILTER)?.unwrap_or_default();
        let combined = if existing.is_empty() {
            line
        } else {
            format!("{existing}\n{line}")
        };
        self.set_xattr(path, XATTR_FILTER, &combined)
    }

    /// Removes all persistent filters from a node.
    pub fn clear_filters(&mut self, path: &str) -> Result<()> {
        let comps = normalize(path)?;
        if !comps.is_empty() && self.get_node(&comps).is_none() {
            return Err(VfsError::NotFound(path.to_string()));
        }
        self.journal(|| FsOp::RemoveXattr {
            path: to_absolute(&comps),
            key: XATTR_FILTER.to_string(),
        })?;
        if comps.is_empty() {
            self.root.xattrs.remove(XATTR_FILTER);
        } else {
            match self.get_node_mut(&comps) {
                Some(n) => {
                    n.xattrs_mut().remove(XATTR_FILTER);
                }
                None => return Err(VfsError::NotFound(path.to_string())),
            }
        }
        Ok(())
    }
}

// ---- tree image codec ----

// Node tags in the image body.
const NODE_FILE: u8 = 0;
const NODE_DIR: u8 = 1;
// Xattr value encodings: raw string, or span refs into the image's
// shared policy table (used for `user.resin.policy`, so a thousand files
// under one ACL persist the policy body once).
const XATTR_RAW: u8 = 0;
const XATTR_SPANS: u8 = 1;

fn encode_xattrs(xattrs: &BTreeMap<String, String>, w: &mut SnapshotWriter) -> Result<()> {
    w.put_u32(xattrs.len() as u32);
    for (k, v) in xattrs {
        w.put_str(k);
        if k == XATTR_POLICY && v.starts_with('#') {
            if let Ok(refs) = w.intern_spans_blob(v) {
                w.put_u8(XATTR_SPANS);
                w.put_span_refs(&refs);
                continue;
            }
        }
        w.put_u8(XATTR_RAW);
        w.put_str(v);
    }
    Ok(())
}

fn decode_xattrs(r: &mut SnapshotReader) -> Result<BTreeMap<String, String>> {
    let n = r.u32().map_err(VfsError::from)?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let key = r.str().map_err(VfsError::from)?;
        let value = match r.u8().map_err(VfsError::from)? {
            XATTR_RAW => r.str().map_err(VfsError::from)?,
            XATTR_SPANS => {
                let refs = r.span_refs().map_err(VfsError::from)?;
                r.spans_blob(&refs).map_err(VfsError::from)?
            }
            other => return Err(VfsError::Storage(format!("unknown xattr tag {other}"))),
        };
        out.insert(key, value);
    }
    Ok(out)
}

fn encode_dir(dir: &DirNode, w: &mut SnapshotWriter) -> Result<()> {
    encode_xattrs(&dir.xattrs, w)?;
    w.put_u32(dir.children.len() as u32);
    for (name, node) in &dir.children {
        w.put_str(name);
        match node {
            Node::File(f) => {
                w.put_u8(NODE_FILE);
                w.put_str(&f.content);
                encode_xattrs(&f.xattrs, w)?;
            }
            Node::Dir(d) => {
                w.put_u8(NODE_DIR);
                encode_dir(d, w)?;
            }
        }
    }
    Ok(())
}

fn decode_dir(r: &mut SnapshotReader) -> Result<DirNode> {
    let xattrs = decode_xattrs(r)?;
    let n = r.u32().map_err(VfsError::from)?;
    let mut children = BTreeMap::new();
    for _ in 0..n {
        let name = r.str().map_err(VfsError::from)?;
        let node = match r.u8().map_err(VfsError::from)? {
            NODE_FILE => {
                let content = r.str().map_err(VfsError::from)?;
                let xattrs = decode_xattrs(r)?;
                Node::File(FileNode { content, xattrs })
            }
            NODE_DIR => Node::Dir(decode_dir(r)?),
            other => return Err(VfsError::Storage(format!("unknown node tag {other}"))),
        };
        children.insert(name, node);
    }
    Ok(DirNode { children, xattrs })
}

fn encode_tree(root: &DirNode) -> Result<Vec<u8>> {
    let mut w = SnapshotWriter::new();
    encode_dir(root, &mut w)?;
    Ok(w.finish())
}

fn decode_tree(image: &[u8]) -> Result<DirNode> {
    let mut r = SnapshotReader::parse(image).map_err(VfsError::from)?;
    decode_dir(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfilter::AclWriteFilter;
    use resin_core::{Acl, PagePolicy, PasswordPolicy, Right, UntrustedData};
    use std::sync::Arc;

    fn anon() -> Context {
        Vfs::anonymous_ctx()
    }

    #[test]
    fn mkdir_write_read_roundtrip() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a/b/c", &anon()).unwrap();
        assert!(fs.is_dir("/a/b/c"));
        fs.write_file("/a/b/c/f.txt", &TaintedString::from("hi"), &anon())
            .unwrap();
        assert_eq!(
            fs.read_file("/a/b/c/f.txt", &anon()).unwrap().as_str(),
            "hi"
        );
        assert_eq!(fs.file_len("/a/b/c/f.txt").unwrap(), 2);
    }

    #[test]
    fn persistent_policy_roundtrip() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/data", &anon()).unwrap();
        let mut secret = TaintedString::from("user:pw123");
        secret.add_policy_range(5..10, Arc::new(PasswordPolicy::new("u@x")));
        fs.write_file("/data/pw.txt", &secret, &anon()).unwrap();

        // The xattr holds the serialized policy.
        let x = fs.get_xattr("/data/pw.txt", XATTR_POLICY).unwrap().unwrap();
        assert!(x.contains("PasswordPolicy"));

        // Reading revives the policy at the same byte range.
        let back = fs.read_file("/data/pw.txt", &anon()).unwrap();
        assert!(back.taint_eq(&secret));
        assert!(back.label_at(0).is_empty());
        assert!(back.label_at(5).has::<PasswordPolicy>());
    }

    #[test]
    fn tracking_off_drops_policies() {
        let mut fs = Vfs::with_mode(TrackingMode::Off);
        fs.mkdir_p("/d", &anon()).unwrap();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        fs.write_file("/d/f", &secret, &anon()).unwrap();
        let back = fs.read_file("/d/f", &anon()).unwrap();
        assert!(back.is_untainted(), "unmodified runtime loses taint");
        assert_eq!(fs.mode(), TrackingMode::Off);
    }

    #[test]
    fn read_raw_bypasses_revival() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        fs.write_file("/d/f", &secret, &anon()).unwrap();
        assert_eq!(fs.read_raw("/d/f").unwrap(), "pw");
    }

    #[test]
    fn untainted_write_has_no_policy_xattr() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.write_file("/d/f", &TaintedString::from("x"), &anon())
            .unwrap();
        assert_eq!(fs.get_xattr("/d/f", XATTR_POLICY).unwrap(), None);
        // Overwriting a tainted file with untainted data clears the xattr.
        let mut t = TaintedString::from("y");
        t.add_policy(Arc::new(UntrustedData::new()));
        fs.write_file("/d/f", &t, &anon()).unwrap();
        assert!(fs.get_xattr("/d/f", XATTR_POLICY).unwrap().is_some());
        fs.write_file("/d/f", &TaintedString::from("z"), &anon())
            .unwrap();
        assert_eq!(fs.get_xattr("/d/f", XATTR_POLICY).unwrap(), None);
    }

    #[test]
    fn append_splices_policies() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.write_file("/d/log", &TaintedString::from("plain:"), &anon())
            .unwrap();
        let mut t = TaintedString::from("tainted");
        t.add_policy(Arc::new(UntrustedData::new()));
        fs.append_file("/d/log", &t, &anon()).unwrap();
        let back = fs.read_file("/d/log", &anon()).unwrap();
        assert_eq!(back.as_str(), "plain:tainted");
        assert!(back.label_at(0).is_empty());
        assert!(back.label_at(6).has::<UntrustedData>());
    }

    #[test]
    fn write_acl_filter_blocks_unauthorized_writes() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/pages/Front", &anon()).unwrap();
        let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("alice", &[Right::Write]),
        ));
        fs.attach_filter("/pages/Front", &filter).unwrap();

        let alice = Vfs::user_ctx("alice");
        let bob = Vfs::user_ctx("bob");
        fs.write_file("/pages/Front/v1", &TaintedString::from("rev1"), &alice)
            .unwrap();
        let err = fs
            .write_file("/pages/Front/v1", &TaintedString::from("vandal"), &bob)
            .unwrap_err();
        assert!(err.is_violation());
        // Creating new versions is also governed (dir op).
        let err = fs
            .write_file("/pages/Front/v2", &TaintedString::from("vandal"), &bob)
            .unwrap_err();
        assert!(err.is_violation());
        // Deleting and renaming too.
        assert!(fs
            .unlink("/pages/Front/v1", &bob)
            .unwrap_err()
            .is_violation());
        assert!(fs
            .rename("/pages/Front/v1", "/pages/Front/v0", &bob)
            .unwrap_err()
            .is_violation());
        assert!(fs
            .rename("/pages/Front/v1", "/pages/Front/v0", &alice)
            .is_ok());
    }

    #[test]
    fn nearest_filter_wins() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/files/alice", &anon()).unwrap();
        // Root denies everyone; alice's home allows alice.
        let deny: PersistentFilterRef = Arc::new(AclWriteFilter::new(Acl::new()));
        let allow: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("alice", &[Right::Write]),
        ));
        fs.attach_filter("/files", &deny).unwrap();
        fs.attach_filter("/files/alice", &allow).unwrap();

        let alice = Vfs::user_ctx("alice");
        fs.write_file("/files/alice/doc", &TaintedString::from("ok"), &alice)
            .unwrap();
        let err = fs
            .write_file("/files/evil", &TaintedString::from("no"), &alice)
            .unwrap_err();
        assert!(err.is_violation(), "root filter governs outside homes");
    }

    #[test]
    fn traversal_attack_caught_by_filter_not_path() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/files/alice", &anon()).unwrap();
        fs.mkdir_p("/files/bob", &anon()).unwrap();
        let bob_only: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("bob", &[Right::Write]),
        ));
        fs.attach_filter("/files/bob", &bob_only).unwrap();

        // Alice submits "../bob/x" to a naive app that joins paths blindly.
        let hostile = crate::path::join("/files/alice", "../bob/pwned");
        let alice = Vfs::user_ctx("alice");
        let err = fs
            .write_file(&hostile, &TaintedString::from("pwn"), &alice)
            .unwrap_err();
        assert!(err.is_violation(), "write filter stops the traversal");
    }

    #[test]
    fn unlink_and_rename_basics() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.write_file("/d/a", &TaintedString::from("1"), &anon())
            .unwrap();
        fs.rename("/d/a", "/d/b", &anon()).unwrap();
        assert!(!fs.exists("/d/a"));
        assert!(fs.exists("/d/b"));
        fs.unlink("/d/b", &anon()).unwrap();
        assert!(!fs.exists("/d/b"));
        assert!(matches!(
            fs.unlink("/d/b", &anon()),
            Err(VfsError::NotFound(_))
        ));
        assert!(matches!(fs.unlink("/d", &anon()), Ok(())), "empty dir ok");
    }

    #[test]
    fn unlink_nonempty_dir_fails() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d/sub", &anon()).unwrap();
        assert!(matches!(
            fs.unlink("/d", &anon()),
            Err(VfsError::IsADirectory(_))
        ));
    }

    #[test]
    fn open_validates() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.write_file("/d/f", &TaintedString::from("x"), &anon())
            .unwrap();
        let h = fs.open("/d/f").unwrap();
        assert_eq!(h.path(), "/d/f");
        assert_eq!(fs.read_handle(&h, &anon()).unwrap().as_str(), "x");
        fs.write_handle(&h, &TaintedString::from("y"), &anon())
            .unwrap();
        assert_eq!(fs.read_raw("/d/f").unwrap(), "y");
        assert!(matches!(fs.open("/d"), Err(VfsError::IsADirectory(_))));
        assert!(matches!(fs.open("/nope"), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn list_dir_sorted() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d/z", &anon()).unwrap();
        fs.write_file("/d/a", &TaintedString::from(""), &anon())
            .unwrap();
        let l = fs.list_dir("/d").unwrap();
        assert_eq!(l, vec![("a".to_string(), false), ("z".to_string(), true)]);
        assert!(fs.list_dir("/d/a").is_err());
        assert!(fs.list_dir("/nope").is_err());
    }

    #[test]
    fn page_policy_persists_through_file() {
        // The Figure 5 flow: PagePolicy serialized on write, revived on read.
        let mut fs = Vfs::new();
        fs.mkdir_p("/wiki", &anon()).unwrap();
        let acl = Acl::new().grant("alice", &[Right::Read]);
        let page = TaintedString::with_policy("wiki text", Arc::new(PagePolicy::new(acl)));
        fs.write_file("/wiki/Front", &page, &anon()).unwrap();
        let back = fs.read_file("/wiki/Front", &anon()).unwrap();
        let pol = back.label();
        assert!(pol.has::<PagePolicy>());
        let policies = pol.policies();
        assert!(policies
            .iter()
            .find_map(|p| p.as_any().downcast_ref::<PagePolicy>())
            .unwrap()
            .acl()
            .may("alice", Right::Read));
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("resin-vfs-test-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn disk_reopen_recovers_files_policies_and_filters() {
        let dir = disk_dir("reopen");
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            assert!(fs.is_durable());
            fs.mkdir_p("/pages/Front", &anon()).unwrap();
            let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(
                Acl::new().grant("alice", &[Right::Write]),
            ));
            fs.attach_filter("/pages/Front", &filter).unwrap();
            let mut secret = TaintedString::from("user:pw123");
            secret.add_policy_range(5..10, Arc::new(PasswordPolicy::new("u@x")));
            fs.write_file("/pages/Front/v1", &secret, &Vfs::user_ctx("alice"))
                .unwrap();
            // Dropped without checkpoint: recovery must come from the WAL.
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        let back = fs.read_file("/pages/Front/v1", &anon()).unwrap();
        assert_eq!(back.as_str(), "user:pw123");
        assert!(back.label_at(5).has::<PasswordPolicy>(), "policy revived");
        assert!(back.label_at(0).is_empty());
        // The persistent write filter survived too.
        let mut fs = fs;
        let err = fs
            .write_file(
                "/pages/Front/v1",
                &TaintedString::from("vandal"),
                &Vfs::user_ctx("bob"),
            )
            .unwrap_err();
        assert!(err.is_violation(), "write ACL survives restart");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_checkpoint_then_more_ops_recovers_both() {
        let dir = disk_dir("ckpt");
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/d", &anon()).unwrap();
            let mut a = TaintedString::from("aa");
            a.add_policy(Arc::new(UntrustedData::new()));
            fs.write_file("/d/a", &a, &anon()).unwrap();
            fs.checkpoint().unwrap();
            fs.write_file("/d/b", &TaintedString::from("bb"), &anon())
                .unwrap();
            fs.rename("/d/b", "/d/c", &anon()).unwrap();
            fs.unlink("/d/a", &anon()).unwrap();
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        assert!(!fs.exists("/d/a"), "post-checkpoint unlink replayed");
        assert_eq!(fs.read_file("/d/c", &anon()).unwrap().as_str(), "bb");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_durable_write_never_bricks_reopen() {
        // A write that errors (target is a directory / parent missing)
        // must leave no WAL record: its replay would otherwise fail every
        // future open_disk.
        let dir = disk_dir("failed-write");
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/pages/Front", &anon()).unwrap();
            let err = fs
                .write_file("/pages/Front", &TaintedString::from("x"), &anon())
                .unwrap_err();
            assert!(matches!(err, VfsError::IsADirectory(_)));
            assert!(matches!(
                fs.write_file("/no/parent/here", &TaintedString::from("x"), &anon()),
                Err(VfsError::NotFound(_))
            ));
            fs.write_file("/pages/Front/v1", &TaintedString::from("ok"), &anon())
                .unwrap();
            // A rename into a missing parent must fail cleanly: source
            // intact in memory, no poison op in the WAL.
            assert!(matches!(
                fs.rename("/pages/Front/v1", "/missing/dir/x", &anon()),
                Err(VfsError::NotFound(_))
            ));
            assert!(
                fs.exists("/pages/Front/v1"),
                "source survives the failed rename"
            );
        }
        let fs = Vfs::open_disk(&dir).expect("failed writes must not poison the log");
        assert!(!fs.recovered_from_torn_wal(), "clean log, clean open");
        assert_eq!(
            fs.read_file("/pages/Front/v1", &anon()).unwrap().as_str(),
            "ok"
        );
        assert!(fs.is_dir("/pages/Front"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_set_policy_xattr_fails_closed() {
        // The pre-interning span form (`start..end|set`) is refused on
        // every read surface, never revived as untainted text.
        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.write_file("/d/f", &TaintedString::from("data"), &anon())
            .unwrap();
        fs.set_xattr("/d/f", XATTR_POLICY, "0..4|UntrustedData{}")
            .unwrap();
        assert!(matches!(
            fs.read_file("/d/f", &anon()),
            Err(VfsError::Policy(_))
        ));
        assert!(matches!(fs.open("/d/f"), Err(VfsError::Policy(_))));
    }

    #[test]
    fn mem_backend_checkpoint_is_noop() {
        let mut fs = Vfs::new();
        assert!(!fs.is_durable());
        fs.checkpoint().unwrap();
    }

    #[test]
    fn clean_checkpoint_is_skipped() {
        let dir = disk_dir("clean-ckpt");
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/d", &anon()).unwrap();
            fs.write_file("/d/a", &TaintedString::from("aa"), &anon())
                .unwrap();
            fs.checkpoint().unwrap();
            let after_first = fs.store_stats().unwrap();
            assert_eq!(after_first.base_seq, 2);
            // No ops since: a periodic checkpointer costs nothing (the
            // store's dirty-part rule is pinned down in its own tests).
            fs.checkpoint().unwrap();
            fs.checkpoint().unwrap();
            assert_eq!(fs.store_stats().unwrap().base_seq, after_first.base_seq);
            // The next op makes the tree dirty again.
            fs.write_file("/d/b", &TaintedString::from("bb"), &anon())
                .unwrap();
            fs.checkpoint().unwrap();
            assert_eq!(fs.store_stats().unwrap().base_seq, 3);
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        assert!(!fs.recovered_from_torn_wal());
        assert!(!fs.recovered_torn_cross_segment());
        assert_eq!(fs.read_file("/d/b", &anon()).unwrap().as_str(), "bb");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_to_dir_path_fails() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d/sub", &anon()).unwrap();
        let err = fs
            .write_file("/d/sub", &TaintedString::from("x"), &anon())
            .unwrap_err();
        assert!(matches!(err, VfsError::IsADirectory(_)));
        // mkdir over a file fails.
        fs.write_file("/d/file", &TaintedString::from("x"), &anon())
            .unwrap();
        assert!(fs.mkdir_p("/d/file/sub", &anon()).is_err());
    }
}
