//! The RSL register-machine VM.
//!
//! One slot array and an explicit frame stack shared by every active call
//! — script recursion consumes VM frames, not native stack, and is bounded
//! by `MAX_CALL_DEPTH`. An instruction names its
//! operands (`Src`: a slot of the frame or a constant) and its
//! destination slot; there is no value stack. Each instruction is
//! implemented once: in the dispatch loop, the cases a policy's loop is
//! made of — unlabeled ints, compares, bound slots, an array indexed where
//! it lies — by matching references into the slots, so nothing is cloned
//! to be looked at; then, out of line, the general path (labels, strings,
//! unbound locals, errors), which reads the operands as values in source
//! order and delegates to `Interp`'s operation helpers. Those helpers are
//! the one definition of taint semantics; the test-only differential
//! oracle walks the AST over the same ones.
//!
//! A gate crossing runs with no host ([`Interp`]), on its class plan alone;
//! only the cold paths ask (unbound names, calls, builtins, definitions,
//! `new`), and a host builtin or a definition is refused there.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use resin_core::{Label, Tracking};

use crate::ast::{BinOp, ClassDecl, FnDecl};
use crate::check::ClassPlan;
use crate::chunk::{Chunk, Const, Op, Src};
use crate::compiler::chunk_for;
use crate::interp::{refused, rt, run_builtin, Builtin, Flow, Interp, MAX_CALL_DEPTH, R};
use crate::value::{Obj, Value};

/// Total backward jumps one VM run may take before it fails with `loop
/// iteration limit exceeded` (a budget for the whole run, not per loop).
const BACK_JUMP_LIMIT: u64 = 100_000_000;

#[cfg(debug_assertions)]
thread_local! {
    static DISPATCHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Instructions this thread's VM runs have dispatched; counted in debug
/// builds only (the release loop pays nothing and this reads 0).
#[doc(hidden)]
pub fn dispatched_ops() -> u64 {
    #[cfg(debug_assertions)]
    return DISPATCHED.with(|n| n.get());
    #[cfg(not(debug_assertions))]
    0
}

/// Runs a compiled top-level chunk. Used by `exec_program`, `exec_chunk`
/// and `import` — the frame does not count against the call depth.
pub(crate) fn run_chunk(interp: &mut Interp, chunk: Arc<Chunk>) -> R<Value> {
    on_host(interp, |vm| {
        vm.bufs.slots.resize_with(chunk.slot_count(), || None);
        vm.bufs.frames.push(Frame {
            chunk,
            ip: 0,
            base: 0,
            dst: 0,
            mode: FrameMode::Entry,
        });
        vm.exec()
    })
}

/// Runs `run` on a VM hosted by `interp`, over the interpreter's resting
/// buffers (a nested run — an `import` from inside the VM — finds them
/// taken and grows its own).
fn on_host(interp: &mut Interp, run: impl FnOnce(&mut Vm<'_>) -> R<Value>) -> R<Value> {
    let mut bufs = std::mem::take(&mut interp.vm_bufs);
    let flow = run(&mut Vm::new(Some(&mut *interp), None, &mut bufs));
    interp.vm_bufs = bufs;
    flow
}

/// `decl`'s chunk, through the interpreter's chunk cache.
fn compiled(interp: &mut Interp, decl: &Arc<FnDecl>) -> R<Arc<Chunk>> {
    chunk_for(interp, decl).map_err(Flow::Error)
}

/// Compiles and calls a function, with `enter`'s arity error and depth
/// cap.
pub(crate) fn call_function(
    interp: &mut Interp,
    decl: &Arc<FnDecl>,
    args: Vec<Value>,
    this: Option<Value>,
) -> R<Value> {
    let chunk = compiled(interp, decl)?;
    on_host(interp, |vm| vm.call(chunk, args, this))
}

/// A gate crossing: calls the `method`-th method of `plan`'s class on
/// `this`, with no host, over `bufs`.
pub(crate) fn cross(
    plan: &ClassPlan,
    bufs: &mut Bufs,
    method: usize,
    args: Option<Value>,
    this: Value,
) -> R<Value> {
    let chunk = plan.chunk(method).map_err(Flow::Error)?.clone();
    Vm::new(None, Some(plan), bufs).call(chunk, args, Some(this))
}

/// What to do with a frame's return value.
enum FrameMode {
    /// Outermost frame: the return value is the run's result.
    Entry,
    /// Ordinary call: the value goes to the caller's destination slot.
    Call,
    /// Constructor: discard the value, this object is the result (`new`
    /// ignores `init`'s return value).
    Init(Value),
}

type Slot = Option<Value>;

/// The VM's growable buffers. Between runs they rest, empty — on the
/// [`Interp`], and per thread for the gate crossings — keeping their
/// capacity, and nothing a script can see.
#[derive(Default)]
pub(crate) struct Bufs {
    /// Every active frame's slots: a callee's window starts inside its
    /// caller's, and the array reaches the end of whichever window ends
    /// last.
    slots: Vec<Slot>,
    frames: Vec<Frame>,
    /// A builtin's arguments, moved out of their temporaries for the call.
    args: Vec<Value>,
}

impl Bufs {
    /// The slot capacity kept, or `None` when a run left anything behind.
    #[cfg(test)]
    pub(crate) fn kept(&self) -> Option<usize> {
        let empty = self.slots.is_empty() && self.frames.is_empty() && self.args.is_empty();
        empty.then_some(self.slots.capacity())
    }
}

struct Frame {
    chunk: Arc<Chunk>,
    ip: usize,
    /// Where the frame's slot 0 is in the slot array.
    base: usize,
    /// Where in the slot array the caller wants the result.
    dst: usize,
    mode: FrameMode,
}

struct Vm<'a> {
    /// The script host; `None` in a gate crossing.
    host: Option<&'a mut Interp>,
    /// The class plan of a gate crossing: its class is the only one in
    /// reach, and its methods' chunks are the plan's.
    plan: Option<&'a ClassPlan>,
    bufs: &'a mut Bufs,
    call_depth: usize,
    back_jumps: u64,
}

/// Enters `chunk` as a frame that counts against the call-depth cap
/// (calls, methods, constructors, and function entry from Rust), checking
/// its arity. Its window starts at `base`: the caller has
/// put `this` (or nothing) there and the `argc` arguments after it; the
/// callee's other slots start unbound, whatever dead temporary of the
/// caller lay there.
fn enter(
    vm: &mut Vm<'_>,
    chunk: Arc<Chunk>,
    base: usize,
    argc: usize,
    dst: usize,
    mode: FrameMode,
) -> R<()> {
    if argc != chunk.arity() {
        return Err(rt(format!(
            "`{}` expects {} arguments, got {argc}",
            chunk.name(),
            chunk.arity()
        )));
    }
    if vm.call_depth >= MAX_CALL_DEPTH {
        return Err(rt("call depth limit exceeded"));
    }
    vm.call_depth += 1;
    let (slots, end) = (&mut vm.bufs.slots, base + chunk.slot_count());
    let stale = slots.len().min(end);
    slots[base + 1 + argc..stale].fill(None);
    if end > slots.len() {
        slots.resize_with(end, || None);
    }
    vm.bufs.frames.push(Frame {
        chunk,
        ip: 0,
        base,
        dst,
        mode,
    });
    Ok(())
}

/// The chunk of `class`'s method `name`: the plan's when `class` is the
/// crossing's class — then `index`, the method's position as the compiler
/// resolved it in a chunk of that plan, stands in for the name — and
/// otherwise compiled through the host's cache. `None` when the class has
/// no such method.
fn method_chunk(
    host: Option<&mut Interp>,
    plan: Option<&ClassPlan>,
    class: &Arc<ClassDecl>,
    name: &str,
    index: u16,
) -> R<Option<Arc<Chunk>>> {
    let position = || class.methods.iter().position(|m| m.name == name);
    if let Some(plan) = plan.filter(|p| Arc::ptr_eq(p.class(), class)) {
        let method = match index {
            Op::UNRESOLVED => position(),
            i => Some(i as usize),
        };
        return match method {
            Some(m) => plan.chunk(m).cloned().map(Some).map_err(Flow::Error),
            None => Ok(None),
        };
    }
    match (host, position()) {
        (Some(host), Some(m)) => compiled(host, &class.methods[m]).map(Some),
        // A crossing reaches no object of another class: `this` is of the
        // plan's, and so is whatever `new` builds there.
        _ => Ok(None),
    }
}

// ---- operands, read in place ----

/// The operand as an int: with `PLAIN`, only an unlabeled one (what
/// arithmetic can do in place); without, any (compares and subscripts
/// ignore labels).
#[inline(always)]
fn int_of<const PLAIN: bool>(frame: &[Slot], consts: &[Const], src: Src) -> Option<i64> {
    match src.decode() {
        Ok(slot) => match &frame[slot] {
            Some(Value::Int(n, label)) if !PLAIN || label.is_empty() => Some(*n),
            _ => None,
        },
        Err(k) => match &consts[k] {
            Const::Int(n) => Some(*n),
            _ => None,
        },
    }
}

/// The operand's text, when it is a string.
#[inline(always)]
fn str_of<'a>(frame: &'a [Slot], consts: &'a [Const], src: Src) -> Option<&'a str> {
    match src.decode() {
        Ok(slot) => match &frame[slot] {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        },
        Err(k) => match &consts[k] {
            Const::Str(s) => Some(s.as_str()),
            _ => None,
        },
    }
}

#[inline(always)]
fn holds<T: PartialOrd + ?Sized>(cmp: BinOp, a: &T, b: &T) -> bool {
    match cmp {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("not a comparison"),
    }
}

/// Writes an int result into the destination's existing `Int` when there
/// is one: no drop glue, no tag write.
#[inline(always)]
fn set_int(slot: &mut Slot, n: i64, label: Label) {
    match slot {
        Some(Value::Int(x, l)) => {
            *x = n;
            *l = label;
        }
        other => *other = Some(Value::Int(n, label)),
    }
}

/// A copy of a value read in place (a slot, an element, a field), taken
/// so that the borrow it was read under can end before the destination —
/// possibly the same slot — is written. An int is copied by its fields,
/// without the clone and drop glue of a whole [`Value`].
enum Copied {
    Int(i64, Label),
    Other(Value),
}

impl Copied {
    #[inline(always)]
    fn of(v: &Value) -> Copied {
        match v {
            Value::Int(n, label) => Copied::Int(*n, *label),
            other => Copied::Other(other.clone()),
        }
    }

    #[inline(always)]
    fn store(self, slot: &mut Slot) {
        match self {
            Copied::Int(n, label) => set_int(slot, n, label),
            Copied::Other(v) => *slot = Some(v),
        }
    }
}

// ---- the general paths ----

/// What an instruction works on: the current frame's slots, its chunk,
/// and the host or the crossing's plan. The methods are the general paths,
/// out of line so that the dispatch loop stays small enough to keep its
/// state in registers.
struct Regs<'a> {
    frame: &'a mut [Slot],
    chunk: &'a Chunk,
    host: Option<&'a mut Interp>,
    plan: Option<&'a ClassPlan>,
}

impl<'a> Regs<'a> {
    /// The operand as a value: a bound slot or a constant, else (a named
    /// local) the global with the slot's name — the frame-then-globals
    /// lookup of RSL's scoping.
    fn read(&self, src: Src) -> R<Value> {
        match src.decode() {
            Ok(slot) => match &self.frame[slot] {
                Some(v) => Ok(v.clone()),
                None => self.unbound(slot),
            },
            Err(k) => Ok(self.chunk.consts[k].value()),
        }
    }

    #[cold]
    #[inline(never)]
    fn unbound(&self, slot: usize) -> R<Value> {
        if slot == 0 {
            return Err(rt("`this` outside method"));
        }
        let name: &str = &self.chunk.slot_names[slot];
        match self.host.as_ref().and_then(|h| h.globals.get(name)) {
            Some(v) => Ok(v.clone()),
            None => Err(rt(format!("undefined variable `{name}`"))),
        }
    }

    fn name(&self, i: impl Into<u32>) -> &'a str {
        &self.chunk.names[i.into() as usize]
    }

    #[inline(never)]
    fn assign(&mut self, dst: u16, src: Src) -> R<()> {
        let v = self.read(src)?;
        let dst = dst as usize;
        if self.frame[dst].is_none() {
            let name: &str = &self.chunk.slot_names[dst];
            let host = self.host.as_deref_mut();
            if let Some(global) = host.and_then(|h| h.globals.get_mut(name)) {
                *global = v;
                return Ok(());
            }
            // First assignment defines the local (PHP-style).
        }
        self.frame[dst] = Some(v);
        Ok(())
    }

    #[inline(never)]
    fn load_global(&mut self, dst: u16, name: u32) -> R<()> {
        let name = self.name(name);
        match self.host.as_ref().and_then(|h| h.globals.get(name)) {
            Some(v) => Copied::of(v).store(&mut self.frame[dst as usize]),
            None => return Err(rt(format!("undefined variable `{name}`"))),
        }
        Ok(())
    }

    #[inline(never)]
    fn store_global(&mut self, name: u32, src: Src) -> R<()> {
        let v = self.read(src)?;
        let name = self.name(name);
        // (Only a top-level chunk stores one, and no crossing runs one.)
        let Some(host) = self.host.as_deref_mut() else {
            return Err(refused(format!("global `{name}`")));
        };
        // get_mut-then-insert: re-assignment (the hot case in every
        // top-level loop) costs one hash and zero allocations.
        if let Some(global) = host.globals.get_mut(name) {
            *global = v;
        } else {
            host.globals.insert(name.to_string(), v);
        }
        Ok(())
    }

    #[inline(never)]
    fn make_array(&mut self, dst: u16, base: u16, n: u16) {
        let items = self.frame[base as usize..][..n as usize]
            .iter_mut()
            .map(|s| s.take().expect("a temporary is bound"))
            .collect();
        self.frame[dst as usize] = Some(Value::new_array(items));
    }

    #[inline(never)]
    fn truthy(&self, src: Src) -> R<bool> {
        Ok(self.read(src)?.truthy())
    }

    #[inline(never)]
    fn neg(&mut self, dst: u16, src: Src) -> R<()> {
        let v = Interp::neg_value(self.read(src)?)?;
        self.frame[dst as usize] = Some(v);
        Ok(())
    }

    #[inline(never)]
    fn arith(&mut self, op: BinOp, dst: u16, a: Src, b: Src) -> R<()> {
        let (l, r) = (self.read(a)?, self.read(b)?);
        let tracking = self.host.as_ref().map_or(Tracking::On, |h| h.tracking);
        let v = match op {
            BinOp::Add => Interp::add_values(tracking, l, r)?,
            op => Interp::arith_values(tracking, op, l, r)?,
        };
        self.frame[dst as usize] = Some(v);
        Ok(())
    }

    #[inline(never)]
    fn compare(&self, cmp: BinOp, a: Src, b: Src) -> R<bool> {
        let (l, r) = (self.read(a)?, self.read(b)?);
        Ok(match cmp {
            BinOp::Eq => l.loose_eq(&r),
            BinOp::Ne => !l.loose_eq(&r),
            cmp => Interp::compare_values(cmp, &l, &r)?.truthy(),
        })
    }

    /// The chunk of the script function `name`, if the host defined one.
    #[inline(never)]
    fn script_fn(&mut self, name: &str) -> R<Option<Arc<Chunk>>> {
        let Some(host) = self.host.as_deref_mut() else {
            return Ok(None);
        };
        match host.fns.get(name).cloned() {
            Some(decl) => compiled(host, &decl).map(Some),
            None => Ok(None),
        }
    }

    /// Runs a builtin over the window at `w`: the arguments move out of
    /// their temporaries for the call.
    #[inline(never)]
    fn builtin(&mut self, args: &mut Vec<Value>, id: Builtin, w: u16, argc: u8, dst: u16) -> R<()> {
        let taken = self.frame[w as usize + 1..][..argc as usize]
            .iter_mut()
            .map(|s| s.take().expect("a temporary is bound"));
        args.extend(taken);
        let result = run_builtin(self.host.as_deref_mut(), id, args);
        args.clear();
        self.frame[dst as usize] = Some(result?);
        Ok(())
    }

    /// The chunk of method `name` of the receiver in slot `w`.
    #[inline(never)]
    fn method(&mut self, name: u16, index: u16, w: u16) -> R<Arc<Chunk>> {
        let name = self.name(name);
        match self.frame[w as usize]
            .as_ref()
            .expect("a temporary is bound")
        {
            Value::Object(o) => {
                let class = &o.borrow().class;
                method_chunk(self.host.as_deref_mut(), self.plan, class, name, index)?
                    .ok_or_else(|| rt(format!("no method `{name}` on `{}`", class.name)))
            }
            recv => Err(rt(format!("cannot call method on {}", recv.type_name()))),
        }
    }

    /// A new instance of class `names[class]` — one the host defined, or
    /// in a crossing the plan's own — and its `init`, if declared.
    #[inline(never)]
    fn instantiate(&mut self, class: u16) -> R<(Value, Option<Arc<Chunk>>)> {
        let name = self.name(class);
        let decl = match (self.host.as_deref(), self.plan) {
            (Some(host), _) => host.classes.get(name).cloned(),
            (None, plan) => plan.map(|p| p.class()).filter(|c| c.name == name).cloned(),
        };
        let decl = decl.ok_or_else(|| rt(format!("undefined class `{name}`")))?;
        let host = self.host.as_deref_mut();
        let init = method_chunk(host, self.plan, &decl, "init", Op::UNRESOLVED)?;
        let obj = Obj {
            class: decl,
            fields: BTreeMap::new(),
        };
        Ok((Value::Object(Rc::new(RefCell::new(obj))), init))
    }

    #[inline(never)]
    fn get_prop(&mut self, dst: u16, obj: Src, name: u16) -> R<()> {
        let name = self.name(name);
        // A field copied out from where the object lies.
        if let Ok(slot) = obj.decode() {
            if let Some(Value::Object(o)) = &self.frame[slot] {
                let field = o.borrow().fields.get(name).map(Copied::of);
                if let Some(v) = field {
                    v.store(&mut self.frame[dst as usize]);
                    return Ok(());
                }
            }
        }
        let v = Interp::prop_value(&self.read(obj)?, name)?;
        self.frame[dst as usize] = Some(v);
        Ok(())
    }

    #[inline(never)]
    fn set_prop(&mut self, obj: Src, name: u16, val: Src) -> R<()> {
        let v = self.read(val)?;
        Interp::prop_assign(&self.read(obj)?, self.name(name), v)
    }

    #[inline(never)]
    fn index(&mut self, dst: u16, a: Src, i: Src) -> R<()> {
        // A map entry copied out from where the map lies.
        if let Ok(slot) = a.decode() {
            if let Some(Value::Map(entries)) = &self.frame[slot] {
                if let Some(key) = str_of(self.frame, &self.chunk.consts, i) {
                    let v = entries.borrow().get(key).map(Copied::of);
                    match v {
                        Some(v) => v.store(&mut self.frame[dst as usize]),
                        None => self.frame[dst as usize] = Some(Value::Null),
                    }
                    return Ok(());
                }
            }
        }
        let v = Interp::index_value(&self.read(a)?, &self.read(i)?)?;
        self.frame[dst as usize] = Some(v);
        Ok(())
    }

    #[inline(never)]
    fn set_index(&mut self, a: Src, i: Src, val: Src) -> R<()> {
        let v = self.read(val)?;
        Interp::index_assign(&self.read(a)?, &self.read(i)?, v)
    }

    #[inline(never)]
    fn define(&mut self, k: u32) -> R<()> {
        match (&self.chunk.consts[k as usize], self.host.as_deref_mut()) {
            (Const::Fn(decl), Some(host)) => {
                host.fns.insert(decl.name.clone(), decl.clone());
                Ok(())
            }
            (Const::Class(decl), Some(host)) => host.register_class(decl),
            (Const::Fn(decl), None) => Err(refused(format!("function definition `{}`", decl.name))),
            (Const::Class(decl), None) => Err(refused(format!("class definition `{}`", decl.name))),
            _ => Err(rt("internal: definition constant is not a declaration")),
        }
    }
}

impl<'a> Vm<'a> {
    /// A VM with no frame: on `host`, or in a crossing of `plan`'s class.
    fn new(host: Option<&'a mut Interp>, plan: Option<&'a ClassPlan>, bufs: &'a mut Bufs) -> Self {
        Vm {
            host,
            plan,
            bufs,
            call_depth: 0,
            back_jumps: 0,
        }
    }

    /// Calls a compiled function or method body.
    fn call(
        &mut self,
        chunk: Arc<Chunk>,
        args: impl IntoIterator<Item = Value>,
        this: Option<Value>,
    ) -> R<Value> {
        self.bufs.slots.push(this);
        self.bufs.slots.extend(args.into_iter().map(Some));
        let argc = self.bufs.slots.len() - 1;
        enter(self, chunk, 0, argc, 0, FrameMode::Entry)?;
        self.exec()
    }

    fn exec(&mut self) -> R<Value> {
        // The dispatch loop keeps the active frame's chunk, instruction
        // pointer and slot window in locals; the ip is written back
        // whenever the frame stack changes (call, return) and the locals
        // are re-derived.
        'frames: loop {
            let (chunk, mut ip, base) = {
                let f = self.bufs.frames.last().expect("frame stack underflow");
                (f.chunk.clone(), f.ip, f.base)
            };
            let (code, consts) = (&chunk.code[..], &chunk.consts[..]);
            let mut regs = Regs {
                frame: &mut self.bufs.slots[base..base + chunk.slots],
                chunk: &chunk,
                host: self.host.as_deref_mut(),
                plan: self.plan,
            };
            // An instruction continues this loop, re-enters `'frames`
            // (call, return), or breaks with what went wrong and where.
            let (flow, at) = 'run: loop {
                let cur = ip;
                let op = code[cur];
                ip += 1;
                #[cfg(debug_assertions)]
                DISPATCHED.with(|n| n.set(n.get() + 1));

                macro_rules! tri {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(flow) => break 'run (flow, cur),
                        }
                    };
                }
                // (Backward jumps are counted against the loop budget.)
                macro_rules! jump {
                    ($t:expr) => {{
                        let t = $t as usize;
                        if t <= cur {
                            self.back_jumps += 1;
                            if self.back_jumps > BACK_JUMP_LIMIT {
                                break 'run (rt("loop iteration limit exceeded"), cur);
                            }
                        }
                        ip = t;
                        continue;
                    }};
                }
                // `dst = a ⊕ b`: unlabeled ints in place (`$fast` yields
                // `None` for what only the general path can report).
                macro_rules! arith {
                    ($op:expr, $dst:expr, $a:expr, $b:expr, $fast:expr) => {{
                        if let (Some(x), Some(y)) = (
                            int_of::<true>(regs.frame, consts, $a),
                            int_of::<true>(regs.frame, consts, $b),
                        ) {
                            let fast: fn(i64, i64) -> Option<i64> = $fast;
                            if let Some(n) = fast(x, y) {
                                set_int(&mut regs.frame[$dst as usize], n, Label::EMPTY);
                                continue;
                            }
                        }
                        tri!(regs.arith($op, $dst, $a, $b));
                    }};
                }
                // `a ⋈ b`: two ints (labels play no part) or two strings
                // where they lie.
                macro_rules! compare {
                    ($cmp:expr, $a:expr, $b:expr) => {{
                        let (f, k) = (&*regs.frame, consts);
                        if let (Some(x), Some(y)) =
                            (int_of::<false>(f, k, $a), int_of::<false>(f, k, $b))
                        {
                            holds($cmp, &x, &y)
                        } else if let (Some(x), Some(y)) = (str_of(f, k, $a), str_of(f, k, $b)) {
                            holds($cmp, x, y)
                        } else {
                            tri!(regs.compare($cmp, $a, $b))
                        }
                    }};
                }
                // Unless the operand is a bool where it lies, its value's
                // truthiness.
                macro_rules! truthy {
                    ($src:expr) => {
                        match $src.decode().map(|slot| &regs.frame[slot]) {
                            Ok(Some(Value::Bool(b))) => *b,
                            _ => tri!(regs.truthy($src)),
                        }
                    };
                }
                // A script call: the window at `$w` becomes the callee's
                // frame, the result goes to `$dst`.
                macro_rules! call {
                    ($callee:expr, $w:expr, $argc:expr, $dst:expr, $mode:expr) => {{
                        self.bufs.frames.last_mut().expect("no frame").ip = ip;
                        let (w, dst) = (base + $w as usize, base + $dst as usize);
                        tri!(enter(self, $callee, w, $argc as usize, dst, $mode));
                        continue 'frames;
                    }};
                }

                match op {
                    Op::Move { dst, src } => match src.decode() {
                        Ok(slot) => match &regs.frame[slot] {
                            Some(v) => Copied::of(v).store(&mut regs.frame[dst as usize]),
                            None => regs.frame[dst as usize] = Some(tri!(regs.unbound(slot))),
                        },
                        Err(k) => regs.frame[dst as usize] = Some(consts[k].value()),
                    },
                    Op::Assign { dst, src } => tri!(regs.assign(dst, src)),
                    Op::LoadGlobal { dst, name } => tri!(regs.load_global(dst, name)),
                    Op::StoreGlobal { name, src } => tri!(regs.store_global(name, src)),
                    Op::MakeArray { dst, base, n } => regs.make_array(dst, base, n),
                    Op::Not { dst, src } => {
                        let truthy = truthy!(src);
                        regs.frame[dst as usize] = Some(Value::Bool(!truthy));
                    }
                    Op::Neg { dst, src } => tri!(regs.neg(dst, src)),
                    Op::Add { dst, a, b } => {
                        arith!(BinOp::Add, dst, a, b, |x, y| Some(x.wrapping_add(y)))
                    }
                    Op::Sub { dst, a, b } => {
                        arith!(BinOp::Sub, dst, a, b, |x, y| Some(x.wrapping_sub(y)))
                    }
                    Op::Mul { dst, a, b } => {
                        arith!(BinOp::Mul, dst, a, b, |x, y| Some(x.wrapping_mul(y)))
                    }
                    Op::Div { dst, a, b } => arith!(BinOp::Div, dst, a, b, i64::checked_div),
                    Op::Mod { dst, a, b } => arith!(BinOp::Mod, dst, a, b, i64::checked_rem),
                    Op::Cmp { cmp, dst, a, b } => {
                        let holds = compare!(cmp, a, b);
                        regs.frame[dst as usize] = Some(Value::Bool(holds));
                    }
                    Op::CmpJump { cmp, a, b, t } => {
                        if !compare!(cmp, a, b) {
                            jump!(t);
                        }
                    }
                    Op::Jump(t) => jump!(t),
                    Op::JumpIf { src, when, t } => {
                        if truthy!(src) == when {
                            jump!(t);
                        }
                    }
                    Op::Call {
                        argc,
                        name,
                        base: w,
                        dst,
                    } => {
                        let name = regs.name(name);
                        let Some(callee) = tri!(regs.script_fn(name)) else {
                            break 'run (rt(format!("undefined function `{name}`")), cur);
                        };
                        regs.frame[w as usize] = None;
                        call!(callee, w, argc, dst, FrameMode::Call)
                    }
                    Op::CallBuiltin {
                        id,
                        argc,
                        base: w,
                        dst,
                    } => {
                        // Script functions shadow builtins whenever they
                        // were defined.
                        if regs.host.as_ref().is_some_and(|h| !h.fns.is_empty()) {
                            if let Some(callee) = tri!(regs.script_fn(id.name())) {
                                regs.frame[w as usize] = None;
                                call!(callee, w, argc, dst, FrameMode::Call)
                            }
                        }
                        tri!(regs.builtin(&mut self.bufs.args, id, w, argc, dst));
                    }
                    Op::Method {
                        argc,
                        name,
                        index,
                        base: w,
                    } => {
                        let callee = tri!(regs.method(name, index, w));
                        call!(callee, w, argc, w, FrameMode::Call)
                    }
                    Op::New {
                        argc,
                        class,
                        base: w,
                        dst,
                    } => match tri!(regs.instantiate(class)) {
                        (obj, Some(init)) => {
                            regs.frame[w as usize] = Some(obj.clone());
                            call!(init, w, argc, dst, FrameMode::Init(obj))
                        }
                        // No constructor: the arguments were evaluated and
                        // are dropped.
                        (obj, None) => regs.frame[dst as usize] = Some(obj),
                    },
                    Op::GetProp { dst, obj, name } => tri!(regs.get_prop(dst, obj, name)),
                    Op::SetProp { obj, name, val } => tri!(regs.set_prop(obj, name, val)),
                    Op::Index { dst, a, i } => {
                        // An array element copied out from where the array
                        // lies; subscript labels are ignored, exactly as
                        // in `index_value`.
                        if let Ok(Some(Value::Array(items))) =
                            a.decode().map(|slot| &regs.frame[slot])
                        {
                            if let Some(n) = int_of::<false>(regs.frame, consts, i) {
                                let item = items.borrow().get(n as usize).map(Copied::of);
                                if let Some(v) = item {
                                    v.store(&mut regs.frame[dst as usize]);
                                    continue;
                                }
                            }
                        }
                        tri!(regs.index(dst, a, i));
                    }
                    Op::SetIndex { a, i, val } => tri!(regs.set_index(a, i, val)),
                    Op::Define(k) => tri!(regs.define(k)),
                    Op::Return { src } => {
                        // (The frame is done with its slots: a local moves.)
                        let v = match src.decode() {
                            Ok(slot) => match regs.frame[slot].take() {
                                Some(v) => v,
                                None => tri!(regs.unbound(slot)),
                            },
                            Err(k) => consts[k].value(),
                        };
                        let done = self.bufs.frames.pop().expect("no frame");
                        let v = match done.mode {
                            FrameMode::Entry => return Ok(v),
                            FrameMode::Call => v,
                            FrameMode::Init(obj) => obj,
                        };
                        // (What the callee left in its window is dead: the
                        // next callee there starts by unbinding it.)
                        self.call_depth -= 1;
                        self.bufs.slots[done.dst] = Some(v);
                        continue 'frames;
                    }
                    Op::Throw { src } => break 'run (Flow::Throw(tri!(regs.read(src))), cur),
                }
            };
            return Err(match flow {
                // The innermost frame's line table wins: an error is
                // reported at the innermost statement it unwound.
                Flow::Error(mut e) if e.line.is_none() => {
                    e.line = chunk.line_of(at);
                    Flow::Error(e)
                }
                other => other,
            });
        }
    }
}

impl Drop for Vm<'_> {
    /// Leaves the buffers empty (an error leaves frames behind).
    fn drop(&mut self) {
        self.bufs.frames.clear();
        self.bufs.slots.clear();
        self.bufs.args.clear();
    }
}
