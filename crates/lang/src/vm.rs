//! The RSL stack-machine VM.
//!
//! One value stack, one slot array, and an explicit frame stack shared by
//! every active call — script recursion consumes VM frames, not native
//! stack, and is bounded by the same depth cap as the tree-walker. All
//! label-carrying operations (`+`, arithmetic, comparisons, builtins)
//! delegate to the exact helpers the tree-walker uses, so the two engines
//! cannot drift in taint semantics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::{BinOp, ClassDecl, FnDecl};
use crate::chunk::{Chunk, Const, Op};
use crate::compiler::chunk_for;
use crate::interp::{rt, Flow, Interp, LangError, MAX_CALL_DEPTH, R};
use crate::value::{Obj, Value};

/// Total backward jumps one VM run may take — the VM's equivalent of the
/// tree-walker's per-loop iteration limit (a global budget rather than a
/// per-loop counter, but the same order of magnitude and error).
const BACK_JUMP_LIMIT: u64 = 100_000_000;

/// Runs a compiled top-level chunk. Used by `exec_program`, `exec_chunk`
/// and `import` — the frame does not count against the call depth.
pub(crate) fn run_chunk(interp: &mut Interp, chunk: Arc<Chunk>) -> R<Value> {
    let mut vm = Vm::new(interp);
    vm.push_frame(chunk, 0, None, FrameMode::Entry);
    vm.exec()
}

/// Compiles (through the interpreter's chunk cache) and calls a function —
/// the VM counterpart of `call_decl`, with the same arity error and depth
/// cap.
pub(crate) fn call_function(
    interp: &mut Interp,
    decl: &Arc<FnDecl>,
    args: Vec<Value>,
    this: Option<Value>,
) -> R<Value> {
    let chunk = chunk_for(interp, decl).map_err(Flow::Error)?;
    call_chunk(interp, chunk, args, this)
}

/// Calls a compiled function or method body.
pub(crate) fn call_chunk(
    interp: &mut Interp,
    chunk: Arc<Chunk>,
    args: impl IntoIterator<Item = Value>,
    this: Option<Value>,
) -> R<Value> {
    let mut vm = Vm::new(interp);
    vm.stack.extend(args);
    let argc = vm.stack.len();
    vm.push_call(chunk, argc, this, FrameMode::Entry)?;
    vm.exec()
}

/// What to do with a frame's return value.
enum FrameMode {
    /// Outermost frame: the return value is the run's result.
    Entry,
    /// Ordinary call: push the value for the caller.
    Call,
    /// Constructor: discard the value, push the object (`new` ignores
    /// `init`'s return value, like the tree-walker).
    Init(Rc<RefCell<Obj>>),
}

/// What the dispatch loop should do after one instruction.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Transfer control within the current chunk.
    Goto(usize),
    /// The frame stack changed (call or return): re-derive the cached
    /// chunk/ip locals from the new top frame.
    Reenter,
    /// The entry frame returned: this is the run's result.
    Done(Value),
}

/// The VM's growable buffers. Between runs they rest, empty, on the
/// [`Interp`], so a pooled evaluator and a long-lived script host keep
/// their capacity instead of allocating it per run.
#[derive(Default)]
pub(crate) struct Bufs {
    stack: Vec<Value>,
    slots: Vec<Option<Value>>,
    frames: Vec<Frame>,
}

struct Frame {
    chunk: Arc<Chunk>,
    ip: usize,
    stack_base: usize,
    slot_base: usize,
    this: Option<Value>,
    mode: FrameMode,
}

struct Vm<'a> {
    interp: &'a mut Interp,
    stack: Vec<Value>,
    slots: Vec<Option<Value>>,
    frames: Vec<Frame>,
    call_depth: usize,
    back_jumps: u64,
}

impl<'a> Vm<'a> {
    /// A VM over the interpreter's resting buffers (a nested run — an
    /// `import` from inside the VM — finds them taken and grows its own).
    fn new(interp: &'a mut Interp) -> Vm<'a> {
        let call_depth = interp.call_depth;
        let Bufs {
            stack,
            slots,
            frames,
        } = std::mem::take(&mut interp.vm_bufs);
        Vm {
            interp,
            stack,
            slots,
            frames,
            call_depth,
            back_jumps: 0,
        }
    }

    /// Enters `chunk` with the top `argc` stack values as its arguments:
    /// they move into the frame's first slots, the rest start unbound.
    fn push_frame(&mut self, chunk: Arc<Chunk>, argc: usize, this: Option<Value>, mode: FrameMode) {
        let slot_base = self.slots.len();
        let args_at = self.stack.len() - argc;
        self.slots.extend(self.stack.drain(args_at..).map(Some));
        self.slots
            .resize_with(slot_base + chunk.slot_count(), || None);
        self.frames.push(Frame {
            chunk,
            ip: 0,
            stack_base: args_at,
            slot_base,
            this,
            mode,
        });
    }

    /// A frame that counts against the call-depth cap (calls, methods,
    /// constructors, and function entry from Rust), with `call_decl`'s
    /// arity error.
    fn push_call(
        &mut self,
        chunk: Arc<Chunk>,
        argc: usize,
        this: Option<Value>,
        mode: FrameMode,
    ) -> R<()> {
        if argc != chunk.arity() {
            return Err(rt(format!(
                "`{}` expects {} arguments, got {argc}",
                chunk.name(),
                chunk.arity()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(rt("call depth limit exceeded"));
        }
        self.call_depth += 1;
        self.push_frame(chunk, argc, this, mode);
        Ok(())
    }

    /// The chunk of `class`'s method `name`: the plan's when a gate
    /// crossing is in progress and `class` is its class — then `index`,
    /// the method's position as the compiler resolved it in a chunk of
    /// that plan, stands in for the name — and otherwise compiled through
    /// the interpreter's cache. `None` when the class has no such method.
    fn method_chunk(
        interp: &mut Interp,
        class: &Arc<ClassDecl>,
        name: &str,
        index: u16,
    ) -> R<Option<Arc<Chunk>>> {
        let position = || class.methods.iter().position(|m| m.name == name);
        if let Some(plan) = &interp.plan {
            if Arc::ptr_eq(plan.class(), class) {
                let method = match index {
                    Op::UNRESOLVED => position(),
                    i => Some(i as usize),
                };
                return match method {
                    Some(m) => plan.chunk(m).cloned().map(Some).map_err(Flow::Error),
                    None => Ok(None),
                };
            }
        }
        match position() {
            Some(m) => {
                let decl = class.methods[m].clone();
                chunk_for(interp, &decl).map(Some).map_err(Flow::Error)
            }
            None => Ok(None),
        }
    }

    fn exec(&mut self) -> R<Value> {
        // The dispatch loop keeps the active frame's chunk and instruction
        // pointer in locals: one bounds-checked fetch per op, no frame-stack
        // access, and names borrowed straight out of the chunk (no refcount
        // traffic). The ip is written back whenever the frame stack changes
        // (call, return) and the locals are re-derived.
        'frames: loop {
            let (chunk, mut ip, slot_base) = {
                let f = self.frames.last().expect("frame stack underflow");
                (f.chunk.clone(), f.ip, f.slot_base)
            };
            loop {
                let cur = ip;
                let op = chunk.code[cur];
                ip += 1;
                // Fast paths for the opcodes every loop body is made of:
                // unlabeled integer arithmetic/compares, bound slots, and
                // jumps. Anything labeled, unbound, or non-integer falls
                // through to `step`, which implements every op in full.
                match op {
                    Op::Const(i) => match &chunk.consts[i as usize] {
                        Const::Int(n) => {
                            self.stack.push(Value::int(*n));
                            continue;
                        }
                        Const::Str(s) => {
                            self.stack.push(Value::Str(s.clone()));
                            continue;
                        }
                        _ => {}
                    },
                    Op::LoadSlot(i) => {
                        if let Some(v) = &self.slots[slot_base + i as usize] {
                            let v = v.clone();
                            self.stack.push(v);
                            continue;
                        }
                    }
                    Op::StoreSlot(i) => {
                        let idx = slot_base + i as usize;
                        if self.slots[idx].is_some() {
                            let v = self.pop();
                            self.slots[idx] = Some(v);
                            continue;
                        }
                    }
                    Op::Add => {
                        let n = self.stack.len();
                        if n >= 2 {
                            if let (Value::Int(b, lb), Value::Int(a, la)) =
                                (&self.stack[n - 1], &self.stack[n - 2])
                            {
                                if la.is_empty() && lb.is_empty() {
                                    let r = a.wrapping_add(*b);
                                    self.stack[n - 2] = Value::int(r);
                                    self.stack.truncate(n - 1);
                                    continue;
                                }
                            }
                        }
                    }
                    Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                        let n = self.stack.len();
                        if n >= 2 {
                            if let (Value::Int(b, lb), Value::Int(a, la)) =
                                (&self.stack[n - 1], &self.stack[n - 2])
                            {
                                if la.is_empty()
                                    && lb.is_empty()
                                    && !(matches!(op, Op::Div | Op::Mod) && *b == 0)
                                {
                                    let r = match op {
                                        Op::Sub => a.wrapping_sub(*b),
                                        Op::Mul => a.wrapping_mul(*b),
                                        Op::Div => a / b,
                                        _ => a % b,
                                    };
                                    self.stack[n - 2] = Value::int(r);
                                    self.stack.truncate(n - 1);
                                    continue;
                                }
                            }
                        }
                    }
                    Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                        let n = self.stack.len();
                        if n >= 2 {
                            if let (Value::Int(b, _), Value::Int(a, _)) =
                                (&self.stack[n - 1], &self.stack[n - 2])
                            {
                                let r = match op {
                                    Op::Lt => a < b,
                                    Op::Le => a <= b,
                                    Op::Gt => a > b,
                                    _ => a >= b,
                                };
                                self.stack[n - 2] = Value::Bool(r);
                                self.stack.truncate(n - 1);
                                continue;
                            }
                        }
                    }
                    Op::ConstArith { op, k } => {
                        if let Some(Value::Int(a, la)) = self.stack.last() {
                            if la.is_empty() && !(matches!(op, BinOp::Div | BinOp::Mod) && k == 0) {
                                let (a, k) = (*a, k as i64);
                                let r = match op {
                                    BinOp::Add => a.wrapping_add(k),
                                    BinOp::Sub => a.wrapping_sub(k),
                                    BinOp::Mul => a.wrapping_mul(k),
                                    BinOp::Div => a / k,
                                    _ => a % k,
                                };
                                let n = self.stack.len();
                                self.stack[n - 1] = Value::int(r);
                                continue;
                            }
                        }
                    }
                    Op::IndexSlots { arr, idx } => {
                        if let (Some(Value::Array(a)), Some(Value::Int(i, _))) = (
                            &self.slots[slot_base + arr as usize],
                            &self.slots[slot_base + idx as usize],
                        ) {
                            let v = a.borrow().get(*i as usize).cloned();
                            if let Some(v) = v {
                                self.stack.push(v);
                                continue;
                            }
                        }
                    }
                    Op::IncSlot { slot, k } => {
                        if let Some(Value::Int(a, la)) = &mut self.slots[slot_base + slot as usize]
                        {
                            if la.is_empty() {
                                *a = a.wrapping_add(k as i64);
                                continue;
                            }
                        }
                    }
                    Op::JumpSlotsGe { a, b, t } => {
                        if let (Some(Value::Int(x, _)), Some(Value::Int(y, _))) = (
                            &self.slots[slot_base + a as usize],
                            &self.slots[slot_base + b as usize],
                        ) {
                            if x >= y {
                                ip = t as usize;
                            }
                            continue;
                        }
                    }
                    Op::GetIndex => {
                        let n = self.stack.len();
                        if n >= 2 {
                            if let (Value::Int(i, _), Value::Array(a)) =
                                (&self.stack[n - 1], &self.stack[n - 2])
                            {
                                // In-range array element; index labels are
                                // ignored, exactly as in `index_value`.
                                let v = a.borrow().get(*i as usize).cloned();
                                if let Some(v) = v {
                                    self.stack[n - 2] = v;
                                    self.stack.truncate(n - 1);
                                    continue;
                                }
                            }
                        }
                    }
                    Op::Eq | Op::Ne => {
                        let r = self.pop();
                        let l = self.pop();
                        let eq = l.loose_eq(&r);
                        self.stack
                            .push(Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }));
                        continue;
                    }
                    Op::JumpIfFalse(t) => {
                        if !self.pop().truthy() {
                            ip = t as usize;
                        }
                        continue;
                    }
                    Op::JumpIfTrue(t) => {
                        if self.pop().truthy() {
                            ip = t as usize;
                        }
                        continue;
                    }
                    Op::Jump(t) => {
                        let t = t as usize;
                        if t <= cur {
                            self.back_jumps += 1;
                            if self.back_jumps > BACK_JUMP_LIMIT {
                                let mut e = LangError::new("loop iteration limit exceeded");
                                e.line = chunk.line_of(cur);
                                return Err(Flow::Error(e));
                            }
                        }
                        ip = t;
                        continue;
                    }
                    Op::Pop => {
                        self.pop();
                        continue;
                    }
                    Op::Null => {
                        self.stack.push(Value::Null);
                        continue;
                    }
                    Op::True => {
                        self.stack.push(Value::Bool(true));
                        continue;
                    }
                    Op::False => {
                        self.stack.push(Value::Bool(false));
                        continue;
                    }
                    _ => {}
                }
                match self.step(op, cur, ip, &chunk, slot_base) {
                    Ok(Ctl::Next) => {}
                    Ok(Ctl::Goto(t)) => ip = t,
                    Ok(Ctl::Reenter) => continue 'frames,
                    Ok(Ctl::Done(v)) => return Ok(v),
                    Err(Flow::Error(mut e)) => {
                        // The innermost frame's line table wins, matching
                        // the tree-walker's innermost-statement attribution.
                        if e.line.is_none() {
                            e.line = chunk.line_of(cur);
                        }
                        return Err(Flow::Error(e));
                    }
                    Err(other) => return Err(other),
                }
            }
        }
    }

    fn step(
        &mut self,
        op: Op,
        cur: usize,
        next_ip: usize,
        chunk: &Chunk,
        slot_base: usize,
    ) -> R<Ctl> {
        match op {
            Op::Const(i) => {
                let v = match &chunk.consts[i as usize] {
                    Const::Int(n) => Value::int(*n),
                    Const::Str(s) => Value::Str(s.clone()),
                    Const::Fn(_) | Const::Class(_) => {
                        return Err(rt("internal: declaration constant loaded as value"))
                    }
                };
                self.stack.push(v);
            }
            Op::Null => self.stack.push(Value::Null),
            Op::True => self.stack.push(Value::Bool(true)),
            Op::False => self.stack.push(Value::Bool(false)),
            Op::LoadSlot(i) => {
                let idx = slot_base + i as usize;
                match &self.slots[idx] {
                    Some(v) => {
                        let v = v.clone();
                        self.stack.push(v);
                    }
                    None => {
                        // Unbound local: fall back to the global of the
                        // same name, exactly like the tree-walker's
                        // frame-then-globals lookup.
                        let name: &str = &chunk.slot_names[i as usize];
                        match self.interp.globals.get(name) {
                            Some(v) => {
                                let v = v.clone();
                                self.stack.push(v);
                            }
                            None => return Err(rt(format!("undefined variable `{name}`"))),
                        }
                    }
                }
            }
            Op::StoreSlot(i) => {
                let v = self.pop();
                let idx = slot_base + i as usize;
                if self.slots[idx].is_some() {
                    self.slots[idx] = Some(v);
                } else {
                    let name: &str = &chunk.slot_names[i as usize];
                    if let Some(g) = self.interp.globals.get_mut(name) {
                        *g = v;
                    } else {
                        // First assignment defines the local (PHP-style).
                        self.slots[idx] = Some(v);
                    }
                }
            }
            Op::LetSlot(i) => {
                let v = self.pop();
                self.slots[slot_base + i as usize] = Some(v);
            }
            Op::LoadGlobal(i) => {
                let name: &str = &chunk.names[i as usize];
                match self.interp.globals.get(name) {
                    Some(v) => {
                        let v = v.clone();
                        self.stack.push(v);
                    }
                    None => return Err(rt(format!("undefined variable `{name}`"))),
                }
            }
            Op::StoreGlobal(i) => {
                let v = self.pop();
                let name: &str = &chunk.names[i as usize];
                // get_mut-then-insert: re-assignment (the hot case in every
                // loop) costs one hash and zero allocations.
                if let Some(g) = self.interp.globals.get_mut(name) {
                    *g = v;
                } else {
                    self.interp.globals.insert(name.to_string(), v);
                }
            }
            Op::LoadThis => match &self.frame().this {
                Some(t) => {
                    let t = t.clone();
                    self.stack.push(t);
                }
                None => return Err(rt("`this` outside method")),
            },
            Op::MakeArray(n) => {
                let items = self.stack.split_off(self.stack.len() - n as usize);
                self.stack.push(Value::new_array(items));
            }
            Op::Not => {
                let v = self.pop();
                self.stack.push(Value::Bool(!v.truthy()));
            }
            Op::Neg => {
                let v = self.pop();
                let v = Interp::neg_value(v)?;
                self.stack.push(v);
            }
            Op::Truthy => {
                let v = self.pop();
                self.stack.push(Value::Bool(v.truthy()));
            }
            Op::Add => {
                let r = self.pop();
                let l = self.pop();
                let v = self.interp.add_values(l, r)?;
                self.stack.push(v);
            }
            Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                let r = self.pop();
                let l = self.pop();
                let op = match op {
                    Op::Sub => BinOp::Sub,
                    Op::Mul => BinOp::Mul,
                    Op::Div => BinOp::Div,
                    _ => BinOp::Mod,
                };
                let v = self.interp.arith_values(op, l, r)?;
                self.stack.push(v);
            }
            Op::Eq => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(Value::Bool(l.loose_eq(&r)));
            }
            Op::Ne => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(Value::Bool(!l.loose_eq(&r)));
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                let r = self.pop();
                let l = self.pop();
                let op = match op {
                    Op::Lt => BinOp::Lt,
                    Op::Le => BinOp::Le,
                    Op::Gt => BinOp::Gt,
                    _ => BinOp::Ge,
                };
                let v = Interp::compare_values(op, &l, &r)?;
                self.stack.push(v);
            }
            Op::Jump(t) => {
                let t = t as usize;
                if t <= cur {
                    self.back_jumps += 1;
                    if self.back_jumps > BACK_JUMP_LIMIT {
                        return Err(rt("loop iteration limit exceeded"));
                    }
                }
                return Ok(Ctl::Goto(t));
            }
            Op::JumpIfFalse(t) => {
                if !self.pop().truthy() {
                    return Ok(Ctl::Goto(t as usize));
                }
            }
            Op::JumpIfTrue(t) => {
                if self.pop().truthy() {
                    return Ok(Ctl::Goto(t as usize));
                }
            }
            Op::Pop => {
                self.pop();
            }
            Op::Call { name, argc } => {
                let name: &str = &chunk.names[name as usize];
                let argc = argc as usize;
                // Script functions shadow builtins, as in the tree-walker.
                if let Some(decl) = self.interp.fns.get(name).cloned() {
                    let callee = chunk_for(self.interp, &decl).map_err(Flow::Error)?;
                    self.frames.last_mut().expect("no frame").ip = next_ip;
                    self.push_call(callee, argc, None, FrameMode::Call)?;
                    return Ok(Ctl::Reenter);
                }
                // A builtin reads its arguments where they lie.
                let args_at = self.stack.len() - argc;
                let v = self.interp.builtin(name, &mut self.stack[args_at..])?;
                self.stack.truncate(args_at);
                self.stack.push(v);
            }
            Op::Method { name, argc, index } => {
                let name: &str = &chunk.names[name as usize];
                let argc = argc as usize;
                // The receiver lies under the arguments.
                let recv_at = self.stack.len() - argc - 1;
                let Value::Object(o) = &self.stack[recv_at] else {
                    let recv = &self.stack[recv_at];
                    return Err(rt(format!("cannot call method on {}", recv.type_name())));
                };
                let callee = {
                    let class = &o.borrow().class;
                    Vm::method_chunk(self.interp, class, name, index)?
                        .ok_or_else(|| rt(format!("no method `{name}` on `{}`", class.name)))?
                };
                let recv = self.stack.remove(recv_at);
                self.frames.last_mut().expect("no frame").ip = next_ip;
                self.push_call(callee, argc, Some(recv), FrameMode::Call)?;
                return Ok(Ctl::Reenter);
            }
            Op::New { class, argc } => {
                let name: &str = &chunk.names[class as usize];
                let argc = argc as usize;
                let decl = self
                    .interp
                    .class_named(name)
                    .ok_or_else(|| rt(format!("undefined class `{name}`")))?;
                let obj = Rc::new(RefCell::new(Obj {
                    class: decl.clone(),
                    fields: BTreeMap::new(),
                }));
                match Vm::method_chunk(self.interp, &decl, "init", Op::UNRESOLVED)? {
                    Some(init) => {
                        let this = Value::Object(obj.clone());
                        self.frames.last_mut().expect("no frame").ip = next_ip;
                        self.push_call(init, argc, Some(this), FrameMode::Init(obj))?;
                        return Ok(Ctl::Reenter);
                    }
                    // No constructor: arguments are evaluated then dropped,
                    // matching the tree-walker.
                    None => {
                        self.stack.truncate(self.stack.len() - argc);
                        self.stack.push(Value::Object(obj));
                    }
                }
            }
            Op::GetProp(i) => {
                let o = self.pop();
                let v = Interp::prop_value(&o, &chunk.names[i as usize])?;
                self.stack.push(v);
            }
            Op::SetProp(i) => {
                let o = self.pop();
                let v = self.pop();
                Interp::prop_assign(&o, &chunk.names[i as usize], v)?;
            }
            Op::GetIndex => {
                let idx = self.pop();
                let a = self.pop();
                let v = Interp::index_value(&a, &idx)?;
                self.stack.push(v);
            }
            Op::SetIndex => {
                let idx = self.pop();
                let a = self.pop();
                let v = self.pop();
                Interp::index_assign(&a, &idx, v)?;
            }
            Op::DefineFn(i) => {
                let Const::Fn(decl) = &chunk.consts[i as usize] else {
                    return Err(rt("internal: DefineFn constant is not a function"));
                };
                let decl = decl.clone();
                self.interp.fns.insert(decl.name.clone(), decl);
            }
            Op::DefineClass(i) => {
                let Const::Class(decl) = &chunk.consts[i as usize] else {
                    return Err(rt("internal: DefineClass constant is not a class"));
                };
                let decl = decl.clone();
                self.interp.register_class(&decl)?;
            }
            Op::Return => {
                let v = self.pop();
                let frame = self.frames.pop().expect("no frame");
                self.stack.truncate(frame.stack_base);
                self.slots.truncate(frame.slot_base);
                match frame.mode {
                    FrameMode::Entry => return Ok(Ctl::Done(v)),
                    FrameMode::Call => {
                        self.call_depth -= 1;
                        self.stack.push(v);
                    }
                    FrameMode::Init(obj) => {
                        self.call_depth -= 1;
                        self.stack.push(Value::Object(obj));
                    }
                }
                return Ok(Ctl::Reenter);
            }
            Op::Throw => {
                let v = self.pop();
                return Err(Flow::Throw(v));
            }
            // Fused instructions, decomposed: each performs the exact op
            // sequence it replaced, so labels/errors/order match the
            // tree-walker even off the fast path.
            Op::ConstArith { op, k } => {
                let l = self.pop();
                let r = Value::int(k as i64);
                let v = if op == BinOp::Add {
                    self.interp.add_values(l, r)?
                } else {
                    self.interp.arith_values(op, l, r)?
                };
                self.stack.push(v);
            }
            Op::IndexSlots { arr, idx } => {
                let a = self.slot_value(arr as usize, chunk, slot_base)?;
                let i = self.slot_value(idx as usize, chunk, slot_base)?;
                let v = Interp::index_value(&a, &i)?;
                self.stack.push(v);
            }
            Op::JumpSlotsGe { a, b, t } => {
                let l = self.slot_value(a as usize, chunk, slot_base)?;
                let r = self.slot_value(b as usize, chunk, slot_base)?;
                let v = Interp::compare_values(BinOp::Lt, &l, &r)?;
                if !v.truthy() {
                    return Ok(Ctl::Goto(t as usize));
                }
            }
            Op::IncSlot { slot, k } => {
                let l = self.slot_value(slot as usize, chunk, slot_base)?;
                let v = self.interp.add_values(l, Value::int(k as i64))?;
                let idx = slot_base + slot as usize;
                if self.slots[idx].is_some() {
                    self.slots[idx] = Some(v);
                } else {
                    let name: &str = &chunk.slot_names[slot as usize];
                    if let Some(g) = self.interp.globals.get_mut(name) {
                        *g = v;
                    } else {
                        self.slots[idx] = Some(v);
                    }
                }
            }
        }
        Ok(Ctl::Next)
    }

    /// The `LoadSlot` read: the bound slot, else the global with the
    /// slot's name, else an undefined-variable error.
    fn slot_value(&mut self, i: usize, chunk: &Chunk, slot_base: usize) -> R<Value> {
        match &self.slots[slot_base + i] {
            Some(v) => Ok(v.clone()),
            None => {
                let name: &str = &chunk.slot_names[i];
                match self.interp.globals.get(name) {
                    Some(v) => Ok(v.clone()),
                    None => Err(rt(format!("undefined variable `{name}`"))),
                }
            }
        }
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("no frame")
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("value stack underflow")
    }
}

impl Drop for Vm<'_> {
    /// Hands the buffers back, emptied (an error leaves frames behind).
    fn drop(&mut self) {
        self.frames.clear();
        self.slots.clear();
        self.stack.clear();
        self.interp.vm_bufs = Bufs {
            stack: std::mem::take(&mut self.stack),
            slots: std::mem::take(&mut self.slots),
            frames: std::mem::take(&mut self.frames),
        };
    }
}
