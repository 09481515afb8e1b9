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
//!
//! Every mutation runs its guards, then commits one [`FsOp`]: the op is
//! validated, logged and applied by the one function recovery replays the
//! log through.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};

use resin_core::serialize::is_spans_blob;
use resin_core::{
    deserialize_spans, serialize_spans, Context, FlowError, FnFilter, Gate, GateKind,
    TaintedString, Tracking,
};
use resin_store::io::{Codec, Map, Seq, Sink, Source, Wire};
use resin_store::snapshot::{intern_spans, spans_blob};
use resin_store::{
    wire, HashWriter, Recovery, SnapshotReader, SnapshotWriter, SpanRef, Store, StoreError,
};

use crate::error::{Result, VfsError};
use crate::op::FsOp;
use crate::path::{normalize, split_parent, to_absolute};
use crate::pfilter::{filter_text, revive_filter, GateMount, PersistentFilterRef};

/// xattr key holding a file's serialized content policies.
pub const XATTR_POLICY: &str = "user.resin.policy";
/// xattr key holding a node's serialized persistent filters.
pub const XATTR_FILTER: &str = "user.resin.filter";

/// The checkpoint part holding the whole tree, a durable vfs store's one
/// part. The name is part of the on-disk format: every vfs store on disk
/// holds its tree under it.
const TREE_PART: &str = "__image__";

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
    mode: Tracking,
    store: Option<Store>,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl Vfs {
    /// A filesystem with RESIN tracking enabled.
    pub fn new() -> Self {
        Vfs::with_mode(Tracking::On)
    }

    /// A filesystem with the given tracking mode.
    pub fn with_mode(mode: Tracking) -> Self {
        Vfs {
            root: DirNode::default(),
            mode,
            store: None,
        }
    }

    /// Opens (creating if needed) a disk-backed filesystem rooted at
    /// `dir`, recovering the last checkpoint plus the op log's surviving
    /// prefix. Tracking is on — durability exists to keep persistent
    /// policies persistent.
    pub fn open_disk(dir: impl AsRef<std::path::Path>) -> Result<Vfs> {
        let (store, recovered) = Store::open(dir)?;
        let mut parts = recovered.parts;
        let root = match parts.pop() {
            None => DirNode::default(),
            Some(tree) if parts.is_empty() && tree.name() == TREE_PART => {
                decode_tree(tree.into_image()?)?
            }
            Some(_) => {
                return Err(VfsError::Storage(
                    "checkpoint holds parts other than the tree".into(),
                ));
            }
        };
        if !recovered.records.is_empty() {
            // The replayed ops post-date the checkpoint: the tree is ahead
            // of its image until the next checkpoint folds them in.
            store.mark_dirty(TREE_PART);
        }
        // Replay commits each logged op as it was committed live, with
        // the store not yet attached: the ops are in the log already. An
        // op that no longer validates means the checkpoint and log
        // disagree (real corruption) and fails the open.
        let mut fs = Vfs {
            root,
            mode: Tracking::On,
            store: None,
        };
        for payload in recovered.records {
            fs.commit(FsOp::decode(&payload)?)?;
        }
        fs.store = Some(store);
        Ok(fs)
    }

    /// How [`open_disk`](Vfs::open_disk) found the op log (`Clean` for
    /// an in-memory tree): after a torn tail the tree is consistent, but
    /// acknowledged-but-unsynced ops from the crashed process may have
    /// been lost.
    pub fn recovery(&self) -> Recovery {
        self.store.as_ref().map_or(Recovery::Clean, Store::recovery)
    }

    /// The active tracking mode.
    pub fn mode(&self) -> Tracking {
        self.mode
    }

    /// Folds the op log into a fresh image of the tree (no-op in memory).
    /// The store writes nothing when no op was logged since the last
    /// checkpoint — its image already equals the tree, so a periodic
    /// checkpointer on an idle filesystem costs nothing. It only reads
    /// the tree, so readers sharing the tree keep going while it runs.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let root = &self.root;
        store.checkpoint_parts([(TREE_PART.to_string(), |out: &mut HashWriter<File>| {
            encode_tree(out, root)
        })])
    }

    // ---- the one mutation path ----

    /// Validates `op` against the tree, logs it to a durable tree's store
    /// (dirtying its image), then applies it. Every mutation a caller
    /// makes ends here once its guards passed, and recovery replays the
    /// log through here, so a live op and its replay cannot diverge.
    ///
    /// Validation comes first: an op that cannot apply never reaches the
    /// log, where its replay would fail every future open. The log comes
    /// before the apply: the tree never holds an op the log lacks, and
    /// the caller sees `Ok` only once the op is logged.
    fn commit(&mut self, op: FsOp) -> Result<()> {
        self.validate(&op)?;
        if let Some(store) = &self.store {
            store.append(&op.encode())?;
            store.mark_dirty(TREE_PART);
        }
        self.apply(op);
        Ok(())
    }

    /// Errors, without touching the tree, when `op` does not fit it:
    /// whenever [`apply`](Vfs::apply) would fail, or would clobber a node
    /// no caller named (a directory under a new one, a rename target, a
    /// non-empty directory's children).
    fn validate(&self, op: &FsOp) -> Result<()> {
        match op {
            FsOp::Mkdir { path } => match self.entry(path)? {
                None => Ok(()),
                Some(Node::File(_)) => Err(VfsError::NotADirectory(to_absolute(path))),
                Some(Node::Dir(_)) => Err(VfsError::AlreadyExists(to_absolute(path))),
            },
            FsOp::Write { path, .. } => match self.entry(path)? {
                Some(Node::Dir(_)) => Err(VfsError::IsADirectory(to_absolute(path))),
                _ => Ok(()),
            },
            FsOp::Unlink { path } => match self.entry(path)? {
                None => Err(VfsError::NotFound(to_absolute(path))),
                Some(Node::Dir(d)) if !d.children.is_empty() => {
                    Err(VfsError::IsADirectory(to_absolute(path)))
                }
                Some(_) => Ok(()),
            },
            FsOp::Rename { from, to } => {
                if self.entry(from)?.is_none() {
                    return Err(VfsError::NotFound(to_absolute(from)));
                }
                if self.entry(to)?.is_some() {
                    return Err(VfsError::AlreadyExists(to_absolute(to)));
                }
                // Moving a directory under itself would detach the very
                // subtree its destination lives in.
                if to.starts_with(from) {
                    return Err(VfsError::InvalidPath(to_absolute(to)));
                }
                Ok(())
            }
            FsOp::SetXattr { path, .. } | FsOp::RemoveXattr { path, .. } => {
                match self.xattrs(path) {
                    Some(_) => Ok(()),
                    None => Err(VfsError::NotFound(to_absolute(path))),
                }
            }
        }
    }

    /// Carries out an op [`validate`](Vfs::validate) accepted.
    fn apply(&mut self, op: FsOp) {
        match op {
            FsOp::Mkdir { mut path } => {
                let name = path.pop().expect("validated: not the root");
                self.dir_mut(&path)
                    .children
                    .insert(name, Node::Dir(DirNode::default()));
            }
            FsOp::Write {
                mut path,
                content,
                policy,
            } => {
                let name = path.pop().expect("validated: not the root");
                let node = self
                    .dir_mut(&path)
                    .children
                    .entry(name)
                    .or_insert_with(|| Node::File(FileNode::default()));
                let Node::File(file) = node else {
                    unreachable!("validated: not a directory");
                };
                file.content = content;
                match policy {
                    Some(p) => file.xattrs.insert(XATTR_POLICY.to_string(), p),
                    None => file.xattrs.remove(XATTR_POLICY),
                };
            }
            FsOp::Unlink { mut path } => {
                let name = path.pop().expect("validated: not the root");
                self.dir_mut(&path).children.remove(&name);
            }
            FsOp::Rename { mut from, mut to } => {
                let name = from.pop().expect("validated: not the root");
                let node = self
                    .dir_mut(&from)
                    .children
                    .remove(&name)
                    .expect("validated: the source exists");
                let name = to.pop().expect("validated: not the root");
                self.dir_mut(&to).children.insert(name, node);
            }
            FsOp::SetXattr { path, key, value } => {
                self.xattrs_mut(&path).insert(key, value);
            }
            FsOp::RemoveXattr { path, key } => {
                self.xattrs_mut(&path).remove(&key);
            }
        }
    }

    /// A file-gate context with no authenticated user.
    pub fn anonymous_ctx() -> Context {
        Context::new(GateKind::File)
    }

    /// A file-gate context for an authenticated `user`.
    pub fn user_ctx(user: &str) -> Context {
        let mut c = Self::anonymous_ctx();
        c.set_str("user", user);
        c
    }

    // ---- node lookup ----

    fn get_node(&self, comps: &[String]) -> Option<&Node> {
        let (last, body) = comps.split_last()?;
        let mut dir = &self.root;
        for c in body {
            match dir.children.get(c) {
                Some(Node::Dir(d)) => dir = d,
                _ => return None,
            }
        }
        dir.children.get(last)
    }

    /// The directory at `comps`.
    fn dir(&self, comps: &[String]) -> Result<&DirNode> {
        let mut dir = &self.root;
        for c in comps {
            match dir.children.get(c) {
                Some(Node::Dir(d)) => dir = d,
                Some(Node::File(_)) => return Err(VfsError::NotADirectory(to_absolute(comps))),
                None => return Err(VfsError::NotFound(to_absolute(comps))),
            }
        }
        Ok(dir)
    }

    /// The node at a non-root `path`, or `None` when its directory lacks
    /// it: what every op that creates, replaces or removes an entry needs
    /// to know, once the directory itself is there.
    fn entry(&self, path: &[String]) -> Result<Option<&Node>> {
        let (name, parent) = path
            .split_last()
            .ok_or_else(|| VfsError::InvalidPath("/".into()))?;
        Ok(self.dir(parent)?.children.get(name))
    }

    /// The file at `comps`.
    fn file(&self, comps: &[String]) -> Result<&FileNode> {
        match self.get_node(comps) {
            Some(Node::File(f)) => Ok(f),
            Some(Node::Dir(_)) => Err(VfsError::IsADirectory(to_absolute(comps))),
            None => Err(VfsError::NotFound(to_absolute(comps))),
        }
    }

    /// The xattrs of the root or of the node at `comps`, if it exists.
    fn xattrs(&self, comps: &[String]) -> Option<&BTreeMap<String, String>> {
        if comps.is_empty() {
            return Some(&self.root.xattrs);
        }
        self.get_node(comps).map(Node::xattrs)
    }

    /// The directory at `comps`, which validation found.
    fn dir_mut(&mut self, comps: &[String]) -> &mut DirNode {
        let mut dir = &mut self.root;
        for c in comps {
            match dir.children.get_mut(c) {
                Some(Node::Dir(d)) => dir = d,
                _ => unreachable!("validated: {c} is a directory"),
            }
        }
        dir
    }

    /// The xattrs of the root or of the node at `comps`, which validation
    /// found.
    fn xattrs_mut(&mut self, comps: &[String]) -> &mut BTreeMap<String, String> {
        match comps.split_last() {
            None => &mut self.root.xattrs,
            Some((name, parent)) => self
                .dir_mut(parent)
                .children
                .get_mut(name)
                .expect("validated: the node exists")
                .xattrs_mut(),
        }
    }

    /// Filters at exactly this node (deserialized). Empty vec when none.
    fn filters_on(&self, comps: &[String]) -> Result<Vec<PersistentFilterRef>> {
        let Some(serialized) = self.xattrs(comps).and_then(|x| x.get(XATTR_FILTER)) else {
            return Ok(Vec::new());
        };
        serialized.lines().map(revive_filter).collect()
    }

    /// The nearest governing filters for a node: its own, else the closest
    /// ancestor's.
    fn governing_filters(&self, comps: &[String]) -> Result<Vec<PersistentFilterRef>> {
        if self.mode == Tracking::Off {
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

    /// The data-flow gate for one file operation: an unguarded file gate
    /// (persistence is this crate's job), carrying the caller's context
    /// plus the file path, with every governing persistent filter mounted
    /// on the chain.
    fn file_gate(&self, comps: &[String], path: &str, ctx: &Context) -> Result<Gate> {
        let mut gate = Gate::unguarded(GateKind::File);
        *gate.context_mut() = Self::merged_file_ctx(ctx);
        gate.context_mut().set_str("path", path);
        for f in self.governing_filters(comps)? {
            gate.add_filter(Box::new(GateMount::new(f)));
        }
        Ok(gate)
    }

    /// The caller's entries on a context of kind `File`.
    fn merged_file_ctx(ctx: &Context) -> Context {
        let mut merged = Context::new(GateKind::File);
        for (key, value) in ctx.iter() {
            merged.set(key, value.clone());
        }
        merged
    }

    /// Asks the filters governing `path`'s directory whether its entry
    /// may be created, deleted or renamed (the root has no directory to
    /// ask).
    fn check_dir_op_allowed(&self, path: &[String], ctx: &Context) -> Result<()> {
        let Some((parent, _)) = split_parent(path) else {
            return Ok(());
        };
        let filters = self.governing_filters(parent)?;
        if filters.is_empty() {
            return Ok(());
        }
        let merged = Self::merged_file_ctx(ctx);
        for f in filters {
            f.check_dir_op(&merged)
                .map_err(|v| VfsError::Policy(FlowError::Denied(v)))?;
        }
        Ok(())
    }

    // ---- directory operations ----

    /// Creates a directory and all missing ancestors.
    pub fn mkdir_p(&mut self, path: &str, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        for depth in 1..=comps.len() {
            let dir = &comps[..depth];
            if !matches!(self.get_node(dir), Some(Node::Dir(_))) {
                self.check_dir_op_allowed(dir, ctx)?;
                self.commit(FsOp::Mkdir { path: dir.to_vec() })?;
            }
        }
        Ok(())
    }

    /// Lists a directory's entries as `(name, is_dir)` pairs, sorted.
    pub fn list_dir(&self, path: &str) -> Result<Vec<(String, bool)>> {
        let dir = self.dir(&normalize(path)?)?;
        Ok(dir
            .children
            .iter()
            .map(|(name, node)| (name.clone(), matches!(node, Node::Dir(_))))
            .collect())
    }

    /// True if a file or directory exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        normalize(path).is_ok_and(|c| self.xattrs(&c).is_some())
    }

    /// True if a directory exists at `path`.
    pub fn is_dir(&self, path: &str) -> bool {
        normalize(path).is_ok_and(|c| self.dir(&c).is_ok())
    }

    /// Deletes a file or empty directory.
    pub fn unlink(&mut self, path: &str, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        // Deleting is a write to the file and a dir-op on the parent
        // (tracking off bypasses the gate, like write_file/read_file).
        if self.mode == Tracking::On {
            self.file_gate(&comps, path, ctx)?
                .export(TaintedString::new())
                .map_err(VfsError::from)?;
            self.check_dir_op_allowed(&comps, ctx)?;
        }
        self.commit(FsOp::Unlink { path: comps })
    }

    /// Renames `from` to `to` (both full paths).
    pub fn rename(&mut self, from: &str, to: &str, ctx: &Context) -> Result<()> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        self.check_dir_op_allowed(&from, ctx)?;
        self.check_dir_op_allowed(&to, ctx)?;
        self.commit(FsOp::Rename { from, to })
    }

    // ---- file I/O ----

    /// Opens a file, validating its path and RESIN xattrs.
    pub fn open(&self, path: &str) -> Result<OpenFile> {
        let components = normalize(path)?;
        let f = self.file(&components)?;
        if self.mode == Tracking::On {
            // Parse (and thereby validate) the RESIN xattrs; this is the
            // per-open cost Table 5 measures.
            if let Some(spans) = f.xattrs.get(XATTR_POLICY) {
                deserialize_spans(&f.content, spans)?;
            }
            if let Some(filters) = f.xattrs.get(XATTR_FILTER) {
                for line in filters.lines() {
                    revive_filter(line)?;
                }
            }
        }
        Ok(OpenFile {
            path: to_absolute(&components),
        })
    }

    /// Writes (replaces) a file's content, creating it if needed.
    ///
    /// With tracking on, the content's policies are serialized into the
    /// policy xattr, and persistent filters govern the write.
    pub fn write_file(&mut self, path: &str, data: &TaintedString, ctx: &Context) -> Result<()> {
        let comps = normalize(path)?;
        // Route the data through the file gate: governing persistent
        // filters interpose exactly like any other boundary's filters, and
        // a chain that only checks passes the borrow through uncopied.
        // (Tracking off — the unmodified-runtime baseline — bypasses the
        // gate.)
        let data = if self.mode == Tracking::On {
            let data = self
                .file_gate(&comps, path, ctx)?
                .export_cow(Cow::Borrowed(data))?;
            if self.get_node(&comps).is_none() {
                self.check_dir_op_allowed(&comps, ctx)?;
            }
            data
        } else {
            Cow::Borrowed(data)
        };
        let policy =
            (self.mode == Tracking::On && !data.is_untainted()).then(|| serialize_spans(&data));
        self.commit(FsOp::Write {
            path: comps,
            content: data.as_str().to_string(),
            policy,
        })
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
        let file = self.file(&comps)?;
        if self.mode == Tracking::Off {
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
        Ok(gate.read(TaintedString::from(file.content.as_str()))?)
    }

    /// Reads raw bytes, bypassing policy revival and filters.
    ///
    /// This models a *non*-RESIN-aware consumer (e.g. a stock web server
    /// serving static files); see the myPHPscripts password-disclosure
    /// scenario, where only a RESIN-aware server catches the leak.
    pub fn read_raw(&self, path: &str) -> Result<String> {
        Ok(self.file(&normalize(path)?)?.content.clone())
    }

    // ---- xattrs and persistent filters ----

    /// Sets an extended attribute on a file or directory.
    pub fn set_xattr(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        self.commit(FsOp::SetXattr {
            path: normalize(path)?,
            key: key.to_string(),
            value: value.to_string(),
        })
    }

    /// Reads an extended attribute.
    pub fn get_xattr(&self, path: &str, key: &str) -> Result<Option<String>> {
        match self.xattrs(&normalize(path)?) {
            Some(x) => Ok(x.get(key).cloned()),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Attaches a persistent filter object to a file or directory,
    /// serializing it into the filter xattr (§3.2.3).
    pub fn attach_filter(&mut self, path: &str, filter: &PersistentFilterRef) -> Result<()> {
        let line = filter_text(filter)?;
        let existing = self.get_xattr(path, XATTR_FILTER)?.unwrap_or_default();
        let combined = if existing.is_empty() {
            line
        } else {
            format!("{existing}\n{line}")
        };
        self.set_xattr(path, XATTR_FILTER, &combined)
    }

    /// Removes all persistent filters from a node.
    #[cfg(test)]
    pub(crate) fn clear_filters(&mut self, path: &str) -> Result<()> {
        self.commit(FsOp::RemoveXattr {
            path: normalize(path)?,
            key: XATTR_FILTER.to_string(),
        })
    }
}

// ---- tree image layout ----

/// An xattr value in the image: raw, or span refs into the image's shared
/// policy table. Only `user.resin.policy` is interned, so a thousand files
/// under one ACL persist the policy body once.
enum XattrValue<'a> {
    Raw(Cow<'a, str>),
    Spans(Vec<SpanRef>),
}

wire! { XattrValue<'a>: u8 { Raw(v) = 0, Spans(refs as Seq<u32>) = 1 } }

/// A node's xattrs: a map whose policy xattr is stored as refs whenever
/// it is a spans blob that interns.
struct Xattrs;

impl Codec<BTreeMap<String, String>> for Xattrs {
    fn put<S: Sink + ?Sized>(
        xattrs: &BTreeMap<String, String>,
        out: &mut S,
    ) -> resin_store::Result<()> {
        Map::<u32>::put_with(xattrs, out, |k, v, out| {
            let interned = k == XATTR_POLICY && is_spans_blob(v);
            match interned.then(|| intern_spans(out, v).ok()).flatten() {
                Some(refs) => XattrValue::Spans(refs),
                None => XattrValue::Raw(Cow::Borrowed(v)),
            }
            .put(out)
        })
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> resin_store::Result<BTreeMap<String, String>> {
        Map::<u32>::get_with(src, |k, src| match XattrValue::get(src)? {
            XattrValue::Raw(v) => Ok(v.into_owned()),
            XattrValue::Spans(refs) if k == XATTR_POLICY => spans_blob(src, &refs),
            XattrValue::Spans(_) => Err(StoreError::Corrupt(format!("span refs in xattr `{k}`"))),
        })
    }
}

wire! { FileNode { content, xattrs as Xattrs } }
wire! { DirNode { xattrs as Xattrs, children as Map<u32> } }
wire! { Node: u8 { File(f) = 0, Dir(d) = 1 } }

fn encode_tree(out: &mut HashWriter<dyn Write + '_>, root: &DirNode) -> Result<()> {
    Ok(SnapshotWriter::write(out, |w| root.put(w))?)
}

fn decode_tree(image: impl Read) -> Result<DirNode> {
    Ok(SnapshotReader::read(image, |r| DirNode::get(r))?)
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

    /// The tree's image, written through the streaming writer.
    fn tree_image(root: &DirNode) -> Vec<u8> {
        let mut out = HashWriter::new(Vec::new());
        encode_tree(&mut out, root).unwrap();
        out.finish().unwrap()
    }

    #[test]
    fn a_file_gate_is_a_file_channel_whatever_context_the_caller_brings() {
        use crate::pfilter::{register_filter_class, PersistentFilter};
        use resin_core::sync::mlock;
        use resin_core::PolicyViolation;
        use std::sync::Mutex;

        /// What each hook saw: the channel type, a `type` entry, the
        /// `path` and the caller's `user`.
        type Seen = (String, Option<String>, Option<String>, Option<String>);
        static SEEN: Mutex<Vec<Seen>> = Mutex::new(Vec::new());

        #[derive(Debug)]
        struct SeesContext;
        impl SeesContext {
            fn record(ctx: &Context) -> std::result::Result<(), PolicyViolation> {
                let get = |key| ctx.get_str(key).map(str::to_string);
                let seen = (
                    ctx.channel_type().to_string(),
                    get("type"),
                    get("path"),
                    get("user"),
                );
                mlock(&SEEN).push(seen);
                Ok(())
            }
        }
        impl PersistentFilter for SeesContext {
            fn name(&self) -> &str {
                "SeesContextTestFilter"
            }
            fn check_write(&self, ctx: &Context) -> std::result::Result<(), PolicyViolation> {
                Self::record(ctx)
            }
            fn check_read(&self, ctx: &Context) -> std::result::Result<(), PolicyViolation> {
                Self::record(ctx)
            }
        }
        register_filter_class("SeesContextTestFilter", |_| {
            Ok(Arc::new(SeesContext) as PersistentFilterRef)
        });

        let mut fs = Vfs::new();
        fs.mkdir_p("/d", &anon()).unwrap();
        fs.attach_filter("/d", &(Arc::new(SeesContext) as PersistentFilterRef))
            .unwrap();
        let mut http = Context::new(GateKind::Http);
        http.set_str("user", "alice");
        fs.write_file("/d/f", &TaintedString::from("hi"), &http)
            .unwrap();
        assert_eq!(fs.read_file("/d/f", &http).unwrap().as_str(), "hi");
        let file = (
            "file".to_string(),
            None,
            Some("/d/f".to_string()),
            Some("alice".to_string()),
        );
        assert_eq!(*mlock(&SEEN), [file.clone(), file]);
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
        assert_eq!(fs.read_raw("/a/b/c/f.txt").unwrap().len(), 2);
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
        let mut fs = Vfs::with_mode(Tracking::Off);
        fs.mkdir_p("/d", &anon()).unwrap();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        fs.write_file("/d/f", &secret, &anon()).unwrap();
        let back = fs.read_file("/d/f", &anon()).unwrap();
        assert!(back.is_untainted(), "unmodified runtime loses taint");
        assert_eq!(fs.mode(), Tracking::Off);
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
        let h = fs.open("/d/./e/../f").unwrap();
        assert_eq!(h.path(), "/d/f");
        assert_eq!(fs.read_file(h.path(), &anon()).unwrap().as_str(), "x");
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
            assert!(fs.store.is_some());
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

    /// Writes one file under `/d` as each user, expecting each outcome.
    fn expect_writes(fs: &mut Vfs, when: &str, users: &[(&str, bool)]) {
        for &(user, may) in users {
            let got = fs.write_file("/d/f", &TaintedString::from(user), &Vfs::user_ctx(user));
            match got {
                Ok(()) => assert!(may, "{when}: `{user}` wrote"),
                Err(e) => assert!(!may && e.is_violation(), "{when}: `{user}`: {e:?}"),
            }
        }
    }

    #[test]
    fn the_parent_stores_tree_image_re_encodes_byte_for_byte() {
        // A recorded store (never regenerated): its policy xattrs go
        // through the wire codec's reader into span refs and back out
        // through its writer, and must come out as they were written.
        let part = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/parent_vfs_store/part.000000.bin"
        );
        let image = std::fs::read(part).unwrap();
        let tree = decode_tree(File::open(part).unwrap()).unwrap();
        assert_eq!(tree_image(&tree), image);
    }

    #[test]
    fn a_principal_cannot_rewrite_the_write_acl_it_is_stored_in() {
        // At rest the ACL is a field of the filter's text. A principal
        // holding the grammar's `;` and `=` must not end that field and
        // start another `acl`, which would replace the ACL on revival.
        let dir = disk_dir("hostile-acl");
        let acl = Acl::new()
            .grant("owner", &[Right::Read, Right::Write])
            .grant("x;acl=mallory", &[Right::Write]);
        let users = [
            ("owner", true),
            ("x;acl=mallory", true),
            ("mallory", false),
            ("x", false),
        ];
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/d", &anon()).unwrap();
            let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(acl));
            fs.attach_filter("/d", &filter).unwrap();
            expect_writes(&mut fs, "live", &users);
            fs.checkpoint().unwrap();
        }
        let mut fs = Vfs::open_disk(&dir).unwrap();
        expect_writes(&mut fs, "after checkpoint and reopen", &users);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_filter_text_that_reads_back_as_another_filter_is_refused() {
        // Escaped by the ACL alone, as filters once were stored: read as an
        // object it unescapes to `a:w,mallory:w`, an ACL granting `mallory`.
        // It does not store the filter it revives as, so it fails closed,
        // live and after checkpoint and reopen.
        let dir = disk_dir("unescaped-filter");
        let refused = |fs: &mut Vfs, when: &str| {
            for user in ["mallory", "a", "a:w,mallory"] {
                let got = fs.write_file("/d/f", &TaintedString::from(user), &Vfs::user_ctx(user));
                assert!(
                    matches!(got, Err(VfsError::Policy(FlowError::Serialize(_)))),
                    "{when}: `{user}`: {got:?}"
                );
            }
        };
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/d", &anon()).unwrap();
            fs.set_xattr("/d", XATTR_FILTER, "AclWriteFilter{acl=a%3Aw%2Cmallory:w}")
                .unwrap();
            refused(&mut fs, "live");
            fs.checkpoint().unwrap();
        }
        let mut fs = Vfs::open_disk(&dir).unwrap();
        refused(&mut fs, "after checkpoint and reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_metacharacter_in_a_principal_round_trips_and_a_newline_is_refused() {
        let mut fs = Vfs::new();
        for c in ['%', '{', '}', ';', ',', '=', '|', '#', ':'] {
            let principal = format!("a{c}b");
            let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(
                Acl::new().grant(&principal, &[Right::Write]),
            ));
            fs.mkdir_p("/d", &anon()).unwrap();
            fs.attach_filter("/d", &filter).unwrap();
            let stored = fs.get_xattr("/d", XATTR_FILTER).unwrap().unwrap();
            assert_eq!(stored.lines().count(), 1, "{stored}");
            let when = format!("principal `{principal}` stored as `{stored}`");
            expect_writes(
                &mut fs,
                &when,
                &[(&principal, true), ("a", false), ("b", false)],
            );
            fs.clear_filters("/d").unwrap();
            fs.unlink("/d/f", &anon()).unwrap();
            fs.unlink("/d", &anon()).unwrap();
        }
        // The filter xattr is one filter a line: a newline is refused at
        // attach, and the filters already there stay as they were.
        fs.mkdir_p("/d", &anon()).unwrap();
        let owner: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("owner", &[Right::Write]),
        ));
        fs.attach_filter("/d", &owner).unwrap();
        let split: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("a\nb", &[Right::Write]),
        ));
        let err = fs.attach_filter("/d", &split).unwrap_err();
        assert!(
            matches!(err, VfsError::Policy(FlowError::Serialize(_))),
            "{err:?}"
        );
        assert_eq!(
            fs.get_xattr("/d", XATTR_FILTER).unwrap().unwrap(),
            "AclWriteFilter{acl=owner:w}"
        );
        expect_writes(
            &mut fs,
            "after the refusal",
            &[("owner", true), ("a", false), ("b", false)],
        );
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
    fn a_policy_xattr_the_image_cannot_intern_survives_checkpoint_and_reopen() {
        // A policy xattr set by hand is any text. One naming only the
        // empty policy text does not intern as span refs, so the image
        // keeps it raw and it reads back byte for byte.
        let dir = disk_dir("empty-text-xattr");
        let blob = "#,A{}#0..1|0";
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.write_file("/f", &TaintedString::from("x"), &anon())
                .unwrap();
            fs.set_xattr("/f", XATTR_POLICY, blob).unwrap();
            fs.checkpoint().unwrap();
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        assert_eq!(
            fs.get_xattr("/f", XATTR_POLICY).unwrap().as_deref(),
            Some(blob)
        );
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
        assert_eq!(fs.recovery(), Recovery::Clean, "clean log, clean open");
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
        let fs = Vfs::new();
        assert!(fs.store.is_none());
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
            let after_first = fs.store.as_ref().unwrap().stats();
            assert_eq!(after_first.base_seq, 2);
            // No ops since: a periodic checkpointer costs nothing (the
            // store's dirty-part rule is pinned down in its own tests).
            fs.checkpoint().unwrap();
            fs.checkpoint().unwrap();
            assert_eq!(
                fs.store.as_ref().unwrap().stats().base_seq,
                after_first.base_seq
            );
            // The next op makes the tree dirty again.
            fs.write_file("/d/b", &TaintedString::from("bb"), &anon())
                .unwrap();
            fs.checkpoint().unwrap();
            assert_eq!(fs.store.as_ref().unwrap().stats().base_seq, 3);
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        assert_eq!(fs.recovery(), Recovery::Clean);
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

    #[test]
    fn rename_into_its_own_subtree_is_refused_and_keeps_the_tree() {
        let dir = disk_dir("rename-into-self");
        {
            let mut fs = Vfs::open_disk(&dir).unwrap();
            fs.mkdir_p("/a/b", &anon()).unwrap();
            fs.write_file("/a/b/f", &TaintedString::from("kept"), &anon())
                .unwrap();
            assert!(matches!(
                fs.rename("/a", "/a/b/a", &anon()),
                Err(VfsError::InvalidPath(_))
            ));
            assert_eq!(fs.read_raw("/a/b/f").unwrap(), "kept");
        }
        let fs = Vfs::open_disk(&dir).unwrap();
        assert_eq!(fs.read_raw("/a/b/f").unwrap(), "kept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn guards_answer_before_the_tree_does() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/locked", &anon()).unwrap();
        let nobody: PersistentFilterRef = Arc::new(AclWriteFilter::new(Acl::new()));
        fs.attach_filter("/locked", &nobody).unwrap();
        // A refused caller learns nothing about what the directory holds.
        let bob = Vfs::user_ctx("bob");
        assert!(fs
            .unlink("/locked/missing", &bob)
            .unwrap_err()
            .is_violation());
        assert!(fs
            .rename("/locked/missing", "/locked/other", &bob)
            .unwrap_err()
            .is_violation());
        assert!(fs.mkdir_p("/locked/sub", &bob).unwrap_err().is_violation());
        // Past the guards, the tree answers.
        assert!(matches!(
            fs.unlink("/missing", &bob),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn a_logged_op_that_does_not_validate_fails_the_open() {
        let dir = disk_dir("bad-op");
        {
            let (store, _) = Store::open(&dir).unwrap();
            let op = FsOp::Unlink {
                path: normalize("/never/was").unwrap(),
            };
            store.append(&op.encode()).unwrap();
        }
        assert!(matches!(Vfs::open_disk(&dir), Err(VfsError::NotFound(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A small deterministic generator (64-bit LCG), enough to draw op
    /// sequences without a dependency.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// Runs one drawn op on `fs`; callers compare the outcomes.
    fn drawn_op(fs: &mut Vfs, rng: &mut Lcg) -> Result<()> {
        const PATHS: [&str; 8] = ["/a", "/a/b", "/a/b/c", "/a/f", "/a/b/f", "/d", "/d/f", "/"];
        let path = PATHS[rng.below(PATHS.len())];
        let other = PATHS[rng.below(PATHS.len())];
        let ctx = Vfs::user_ctx(["alice", "bob"][rng.below(2)]);
        match rng.below(8) {
            0 => fs.mkdir_p(path, &ctx),
            1 | 2 => {
                let mut data = TaintedString::from(format!("{path} by {other}"));
                if rng.below(2) == 0 {
                    data.add_policy_range(1..3, Arc::new(UntrustedData::new()));
                }
                fs.write_file(path, &data, &ctx)
            }
            3 => fs.append_file(path, &TaintedString::from("+"), &ctx),
            4 => fs.unlink(path, &ctx),
            5 => fs.rename(path, other, &ctx),
            6 => fs.set_xattr(path, "user.note", other),
            _ => match rng.below(3) {
                0 => fs.clear_filters(path),
                _ => {
                    let alice_writes: PersistentFilterRef = Arc::new(AclWriteFilter::new(
                        Acl::new().grant("alice", &[Right::Write]),
                    ));
                    fs.attach_filter(path, &alice_writes)
                }
            },
        }
    }

    #[test]
    fn every_op_replays_to_the_tree_it_built() {
        for seed in 1..=4u64 {
            let dir = disk_dir("replay-differential");
            let mut mem = Vfs::new();
            let mut rng = Lcg(seed);
            {
                let mut disk = Vfs::open_disk(&dir).unwrap();
                let mut disk_rng = Lcg(seed);
                for step in 0..300 {
                    let want = drawn_op(&mut mem, &mut rng);
                    let got = drawn_op(&mut disk, &mut disk_rng);
                    assert_eq!(got, want, "seed {seed} step {step}");
                    if step == 150 {
                        disk.checkpoint().unwrap();
                    }
                }
                assert_eq!(tree_image(&disk.root), tree_image(&mem.root));
            }
            // Recovery commits the logged tail through the same path and
            // lands on the same tree, byte for byte.
            let disk = Vfs::open_disk(&dir).unwrap();
            assert_eq!(disk.recovery(), Recovery::Clean);
            assert_eq!(tree_image(&disk.root), tree_image(&mem.root), "seed {seed}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_tree_image_reads_back_as_itself_once_re_encoded() {
        use crate::mutants::{resealed, wider, Rng};
        let mut rng = Rng::new(12);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|_| {
                let mut fs = Vfs::new();
                for i in 0..rng.below(4) {
                    let dir = ["/a", "/a/b", "/c"][rng.below(3)];
                    fs.mkdir_p(dir, &anon()).unwrap();
                    let mut data = TaintedString::from("secret");
                    if rng.below(2) == 0 {
                        data.add_policy_range(1..4, Arc::new(PasswordPolicy::new("u@x")));
                    }
                    fs.write_file(&format!("{dir}/f{i}"), &data, &anon())
                        .unwrap();
                    if rng.below(3) == 0 {
                        fs.set_xattr(dir, "user.note", "#not-a-blob").unwrap();
                    }
                }
                tree_image(&fs.root)
            })
            .collect();
        let decode = |b: &[u8]| decode_tree(b).ok().map(|t| tree_image(&t));
        wider(&canons, resealed, decode, Vec::clone);
    }
}
