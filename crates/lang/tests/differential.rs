//! Differential tests: every program runs through the tree-walking
//! interpreter AND the bytecode VM, and the two must agree on everything
//! observable — result values, **policy labels** (taint must be neither
//! laundered nor over-applied by compilation), error messages with their
//! source lines, print output, HTTP output, and final global state.

use resin_lang::{Engine, Interp, LangError, Tracking, Value};

/// Runs one program on both engines and asserts full observable equality.
/// Returns the tree engine's outcome for additional assertions.
fn diff(src: &str) -> Result<Value, LangError> {
    diff_with(src, Tracking::On)
}

fn diff_with(src: &str, tracking: Tracking) -> Result<Value, LangError> {
    let mut tree = Interp::with_config(tracking, Engine::Tree);
    let mut vm = Interp::with_config(tracking, Engine::Vm);
    let rt = tree.run(src);
    let rv = vm.run(src);
    match (&rt, &rv) {
        (Ok(a), Ok(b)) => assert_value_eq(a, b, "result"),
        (Err(a), Err(b)) => {
            assert_eq!(a.message, b.message, "error message for {src:?}");
            assert_eq!(a.violation, b.violation, "violation flag for {src:?}");
            assert_eq!(a.line, b.line, "error line for {src:?}");
        }
        (a, b) => panic!("engines disagree on outcome for {src:?}:\n tree={a:?}\n vm={b:?}"),
    }
    assert_eq!(tree.print_output(), vm.print_output(), "print for {src:?}");
    assert_eq!(tree.http_output(), vm.http_output(), "http for {src:?}");
    for name in ["x", "y", "z", "a", "b", "c", "out", "msg", "names"] {
        match (tree.global(name), vm.global(name)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_value_eq(&a, &b, name),
            (a, b) => panic!("global `{name}` differs for {src:?}: tree={a:?} vm={b:?}"),
        }
    }
    rt
}

/// Deep value equality *including labels*. Labels are compared by their
/// policy-name sets (the two engines run in separate interpreter
/// instances, so script-policy ids differ even when the taint is
/// identical); strings are compared byte by byte.
fn assert_value_eq(a: &Value, b: &Value, path: &str) {
    match (a, b) {
        (Value::Null, Value::Null) => {}
        (Value::Bool(x), Value::Bool(y)) => assert_eq!(x, y, "{path}"),
        (Value::Int(x, lx), Value::Int(y, ly)) => {
            assert_eq!(x, y, "{path}");
            let names = |l: resin_core::Label| {
                let mut v: Vec<String> =
                    l.policies().iter().map(|p| p.name().to_string()).collect();
                v.sort();
                v
            };
            assert_eq!(names(*lx), names(*ly), "{path}: int label");
        }
        (Value::Str(x), Value::Str(y)) => {
            assert_eq!(x.as_str(), y.as_str(), "{path}: text");
            for i in 0..x.len() {
                let names = |l: resin_core::Label| {
                    let mut v: Vec<String> =
                        l.policies().iter().map(|p| p.name().to_string()).collect();
                    v.sort();
                    v
                };
                assert_eq!(
                    names(x.label_at(i)),
                    names(y.label_at(i)),
                    "{path}: label at byte {i} of {:?}",
                    x.as_str()
                );
            }
        }
        (Value::Array(x), Value::Array(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            assert_eq!(x.len(), y.len(), "{path}: array length");
            for (i, (xe, ye)) in x.iter().zip(y.iter()).enumerate() {
                assert_value_eq(xe, ye, &format!("{path}[{i}]"));
            }
        }
        (Value::Map(x), Value::Map(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            let xk: Vec<&String> = x.keys().collect();
            let yk: Vec<&String> = y.keys().collect();
            assert_eq!(xk, yk, "{path}: map keys");
            for (k, xe) in x.iter() {
                assert_value_eq(xe, &y[k], &format!("{path}[{k:?}]"));
            }
        }
        (Value::Object(x), Value::Object(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            assert_eq!(x.class.name, y.class.name, "{path}: class");
            let xk: Vec<&String> = x.fields.keys().collect();
            let yk: Vec<&String> = y.fields.keys().collect();
            assert_eq!(xk, yk, "{path}: fields");
            for (k, xe) in x.fields.iter() {
                assert_value_eq(xe, &y.fields[k], &format!("{path}.{k}"));
            }
        }
        _ => panic!("{path}: type mismatch: {a:?} vs {b:?}"),
    }
}

// ---- targeted programs ----

#[test]
fn values_and_operators() {
    diff("1 + 2 * 3 - 4 / 2;").unwrap();
    diff("10 % 3;").unwrap();
    diff("-5 + -(-3);").unwrap();
    diff(r#""a" + "b" + 1 + true + null;"#).unwrap();
    diff(r#"1 == 1 && "a" != "b";"#).unwrap();
    diff(r#"1 < 2 || 3 <= 2;"#).unwrap();
    diff(r#""abc" < "abd";"#).unwrap();
    diff("!0 == true;").unwrap();
    diff("let x = [1, \"two\", [3]]; x;").unwrap();
    diff(r#"let m = map(); m["k"] = 1; m["missing"];"#).unwrap();
    diff(r#""hello"[1];"#).unwrap();
    diff(r#""hello"[99];"#).unwrap(); // clamped slice: empty, no error
}

#[test]
fn short_circuit_is_bool_and_lazy() {
    // && / || always produce plain bools and skip the right side.
    diff(r#"let x = 0; let y = (x != 0) && (1 / x == 1); y;"#).unwrap();
    diff(r#"let x = 1; let y = (x == 1) || (1 / 0 == 1); y;"#).unwrap();
    diff(r#"let y = 2 && 3; y;"#).unwrap();
    diff(r#"let y = 0 || "s"; y;"#).unwrap();
}

#[test]
fn scoping_matches_php_rules() {
    // Locals shadow globals; assignment writes through to an existing
    // global; first assignment in a function defines a local.
    diff("let x = 1; fn f() { x = 2; return x; } f(); x;").unwrap();
    diff("fn f() { y = 7; return y; } f(); let out = f();").unwrap();
    diff("let x = 1; fn f() { let x = 10; return x; } let y = f() + x; y;").unwrap();
    diff("fn f() { if (false) { q = 1; } return 0; } f();").unwrap();
    // Unbound local falls back to the global at read time.
    diff("let x = 5; fn f() { if (false) { x = 1; } return x; } f();").unwrap();
}

#[test]
fn evaluation_order_side_effects() {
    // Assignment evaluates the VALUE before the target's subexpressions.
    diff(
        "let a = [0, 0]; let i = 0;
         fn bump() { i = i + 1; return i; }
         a[bump() - 1] = bump(); a;",
    )
    .unwrap();
    // Receiver before arguments; arguments left to right.
    diff(
        r#"let out = "";
           fn tag(s) { out = out + s; return s; }
           class C { fn m(p, q) { return p + q; } }
           let c = new C();
           c.m(tag("a"), tag("b")); out;"#,
    )
    .unwrap();
}

#[test]
fn functions_classes_and_control_flow() {
    diff("fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fib(12);")
        .unwrap();
    diff("let x = 0; let c = 0; while (c < 10) { x = x + c; c = c + 1; } x;").unwrap();
    diff(
        "class Counter {
           fn init(start) { this.n = start; }
           fn bump() { this.n = this.n + 1; return this.n; }
         }
         let c = new Counter(40); c.bump(); c.bump();",
    )
    .unwrap();
    // `new` with no init evaluates (then drops) its arguments.
    diff(
        r#"let out = "";
           fn tag(s) { out = out + s; return s; }
           class Bare { fn poke() { return 1; } }
           let b = new Bare(tag("x"), tag("y")); out;"#,
    )
    .unwrap();
    // init's return value is discarded; the object comes back.
    diff("class C { fn init() { return 99; } } let x = new C(); typeof(x);").unwrap();
    // Implicit return is null.
    diff("fn f() { 1 + 1; } let x = f(); typeof(x);").unwrap();
}

#[test]
fn taint_flows_identically() {
    diff(
        r#"let pw = policy_add("s3cret", "UntrustedData");
           let msg = "password: " + pw;
           let names = policy_get(msg); msg;"#,
    )
    .unwrap();
    diff(
        r#"let a = policy_add(40, "UntrustedData");
           let x = a + 2; let names = policy_get(x); x;"#,
    )
    .unwrap();
    diff(
        r#"let s = policy_add("42", "UntrustedData");
           let x = int(s) * 2; policy_get(x);"#,
    )
    .unwrap();
    diff(
        r#"let t = policy_add("mid", "UntrustedData");
           let s = "aa" + t + "bb";
           let u = substr(s, 1, 4); u;"#,
    )
    .unwrap();
    diff(
        r#"let t = policy_add("x,y", "UntrustedData");
           join("-", split(t, ",")); "#,
    )
    .unwrap();
    // policy_remove unlabels on both engines.
    diff(
        r#"let t = policy_add("v", "UntrustedData");
           let u = policy_remove(t, "UntrustedData");
           policy_get(u);"#,
    )
    .unwrap();
}

#[test]
fn tracking_off_matches_too() {
    diff_with(
        r#"let pw = policy_add("s", "UntrustedData");
           let msg = "x" + pw; let names = policy_get(msg); msg;"#,
        Tracking::Off,
    )
    .unwrap();
    diff_with("let x = 1 + 2; x;", Tracking::Off).unwrap();
}

#[test]
fn script_policies_enforce_identically() {
    let violation = diff(
        r#"class PasswordPolicy {
             fn init(email) { this.email = email; }
             fn export_check(context) {
               if (context["type"] == "email" && context["email"] == this.email) { return; }
               throw "unauthorized disclosure";
             }
           }
           let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
           echo("Your password is: " + pw);"#,
    )
    .unwrap_err();
    assert!(violation.violation);

    diff(
        r#"class Tag {
             fn init() { this.k = "t"; }
             fn export_check(context) { return; }
           }
           echo(policy_add("fine", new Tag()));"#,
    )
    .unwrap();
}

#[test]
fn errors_match_with_lines() {
    for src in [
        "missing;",
        "nosuchfn();",
        "let a = 1;\n1 / 0;",
        r#""a" - 1;"#,
        "let a = [1]; a[5];",
        "let a = [1]; a[2] = 9;",
        "fn f(x) { return x; } f();",
        "fn f(x) { return x; } f(1, 2);",
        "fn loop_(n) { return loop_(n); } loop_(1);",
        "this;",
        r#"throw "boom";"#,
        "let o = 1; o.field;",
        "o_undefined.field = 1;",
        "new Nope();",
        "let m = map(); m[0];",
        "fn f() {\n  let x = 0;\n  return 1 / x;\n}\nf();",
        "-\"s\";",
        r#"1 < "s";"#,
        "int(\"zzz\");",
        "substr(1, 2, 3);",
    ] {
        let e = diff(src).unwrap_err();
        assert!(!e.message.is_empty());
    }
}

#[test]
fn uncaught_throw_formats_identically() {
    let e = diff(r#"throw "kaboom: " + 7;"#).unwrap_err();
    assert_eq!(e.message, "uncaught exception: kaboom: 7");
}

// ---- what a register compiler can get wrong and a stack compiler cannot ----

#[test]
fn a_destination_that_is_also_an_operand() {
    // Every operand is read before the destination is written, at any
    // depth of the expression, for locals and for globals.
    let body = "x = y - x * (x + y); x = x + x * x; x = w[x % 3]; x = w[x] + x; x = -x; x = !x;";
    diff(&format!(
        "fn f(x, y) {{ let w = [2, 0, 1]; {body} return x; }} let out = f(3, 4); out;"
    ))
    .unwrap();
    diff(&format!(
        "let x = 3; let y = 4; let w = [2, 0, 1]; {body} x;"
    ))
    .unwrap();
    // The same through an implicitly defined local, which the PHP rule
    // makes a different instruction.
    diff(
        "fn f(y) { x = 3; x = y - x * (x + y); w = [2, 0, 1]; x = w[x * x % 3]; return x; } f(4);",
    )
    .unwrap();
    // A method call whose result replaces its receiver, into its own
    // argument's variable.
    diff(
        "class C { fn init(n) { this.n = n; } fn add(k) { return new C(this.n + k); } fn get() { return this.n; } }
         fn f() { let c = new C(1); c = c.add(c.get()).add(c.get()); return c.get(); } f();",
    )
    .unwrap();
}

#[test]
fn unbound_locals_and_the_globals_they_shadow() {
    // Assignment to a local that is unbound goes to the global of its
    // name, outside a loop and inside one, and the local stays unbound.
    diff("let x = 1; fn f() { x = x + 1; x = x * 10; return x; } let out = f(); x;").unwrap();
    diff("let x = 0; fn f() { let i = 0; while (i < 4) { x = x + i; i = i + 1; } return x; } let out = f(); x;")
        .unwrap();
    // `let` binds whatever global there is; from then on the global is
    // shadowed — from the second iteration of a loop, too.
    diff("let x = 1; fn f() { let x = x + 5; x = x + 1; return x; } let out = f(); x;").unwrap();
    diff(
        "let x = 100; fn f() { let i = 0; let s = 0;
           while (i < 3) { s = s + x; let x = i; x = x + 1; s = s + x; i = i + 1; }
           return s; }
         let out = f(); x;",
    )
    .unwrap();
    // No global: the first assignment binds, in a branch or a loop.
    diff("fn f(p) { if (p) { y = 1; } else { y = 2; } y = y + 1; return y; } let out = f(true) + f(false);")
        .unwrap();
    diff("fn f() { let i = 0; while (i < 3) { t = i; i = i + 1; } return t; } let out = f();")
        .unwrap();
    // A global defined by a callee between two reads of an unbound local:
    // each read sees what the tree-walker's read sees.
    diff(
        "fn g() { q = 7; return 0; }
         fn set() { let r = 0; if (r) { q = 0; } return r; }
         fn f() { if (false) { q = 0; } return typeof(set()) + q; }
         f();",
    )
    .unwrap_err();
    diff(
        "let q = 1;
         fn bump() { q = q + 10; return 0; }
         fn f() { if (false) { q = 0; } let a = q + bump(); let b = bump() + q; return [a, b, q + bump() + q]; }
         let out = f(); q;",
    )
    .unwrap();
    // An undefined local fails before a later operand's side effect.
    let e = diff("fn noisy() { print(\"ran\"); return 1; } fn f() { if (false) { u = 0; } return u + noisy(); } f();")
        .unwrap_err();
    assert_eq!(e.message, "undefined variable `u`");
    let e = diff("fn f() { if (false) { u = 0; } return [1 / 0, u]; }\nf();").unwrap_err();
    assert_eq!((e.message.as_str(), e.line), ("division by zero", Some(1)));
    // `this` outside a method, as an operand and as a receiver.
    diff("fn f() { return this; } f();").unwrap_err();
    diff("fn f() { return this.m(1); } f();").unwrap_err();
    diff("fn f() { return 1 + this.n; } f();").unwrap_err();
}

#[test]
fn labels_ride_through_every_operator() {
    for op in ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="] {
        // Labeled left, labeled right, both, in a function (operands in
        // place) and at top level (operands loaded), result and label.
        diff(&format!(
            r#"fn f(p, q) {{ let r = p {op} q; let s = 7 {op} q; let t = p {op} 2; return [r, s, t, policy_get(r), policy_get(s), policy_get(t)]; }}
               let a = policy_add(9, "UntrustedData");
               let b = policy_add(4, "AuthenticData");
               let out = [f(a, b), f(a, 4), f(9, b), a {op} b];
               let x = a {op} b; let names = policy_get(x); out;"#
        ))
        .unwrap();
        // As a branch condition and a loop guard.
        diff(&format!(
            r#"fn f(p, q) {{ let n = 0; if (p {op} q) {{ n = n + 1; }} while (n < 3 && (p {op} q)) {{ n = n + 1; }} return n; }}
               let a = policy_add(9, "UntrustedData");
               let out = [f(a, 4), f(4, a), f(a, a)];"#
        ))
        .unwrap();
    }
    // Labeled subscripts, labeled elements, labeled unary minus.
    diff(
        r#"fn f(w, i) { let e = w[i]; let m = -e; i = i + 1; return [e, m, w[i], policy_get(e), policy_get(m), policy_get(i)]; }
           let i = policy_add(0, "UntrustedData");
           let out = f([policy_add(5, "AuthenticData"), 6], i);"#,
    )
    .unwrap();
    // Strings compare and index by labeled values too.
    diff(
        r#"fn f(s, t) { return [s < t, s == t, s != t, s >= t, s[0], t[1]]; }
           let out = f(policy_add("abc", "UntrustedData"), "abd");"#,
    )
    .unwrap();
}

#[test]
fn division_by_zero_three_deep() {
    for op in ["/", "%"] {
        for zero in ["0", "z", "(z * 1)", "w[0]"] {
            let e = diff(&format!(
                "fn f(z, w) {{\n  let a = 1;\n  let b = a + (2 * (3 - (a {op} {zero})));\n  return b;\n}}\nlet out = f(0, [0]);"
            ))
            .unwrap_err();
            assert_eq!((e.message.as_str(), e.line), ("division by zero", Some(3)));
            let e = diff(&format!(
                "let z = 0; let w = [0];\nlet a = 1;\n\nlet b = a + (2 * (3 - (a {op} {zero})));"
            ))
            .unwrap_err();
            assert_eq!((e.message.as_str(), e.line), ("division by zero", Some(4)));
        }
    }
    // In a loop guard, at both ends of the loop.
    let e = diff("fn f(n) {\n  let i = 0;\n  while (i < 10 / n) {\n    i = i + 1;\n    n = n - 1;\n  }\n}\nf(2);")
        .unwrap_err();
    assert_eq!((e.message.as_str(), e.line), ("division by zero", Some(3)));
}

#[test]
fn integer_overflow_is_an_error_not_a_panic() {
    let min = "(0 - 9223372036854775807 - 1)";
    for (expr, overflows) in [
        (format!("{min} / (0 - 1)"), true),
        (format!("{min} % (0 - 1)"), true),
        (format!("{min} / -1"), true),
        (format!("{min} % -1"), true),
        (format!("-{min}"), true),
        (format!("{min} / 1"), false),
        (format!("{min} % 1"), false),
        (format!("{min} - 1"), false),
        (format!("{min} + {min}"), false),
        (format!("{min} * 3"), false),
        ("9223372036854775807 + 1".to_string(), false),
        ("-9223372036854775807 - 1".to_string(), false),
    ] {
        // Constant operands, local operands, a labeled operand.
        for src in [
            format!("let out = {expr};"),
            format!(
                "fn f(a) {{ return {}; }} let out = f({min});",
                expr.replace(min, "a")
            ),
            format!(
                "fn f(a) {{ return {}; }} let out = f(policy_add({min}, \"UntrustedData\"));",
                expr.replace(min, "a")
            ),
        ] {
            match diff(&src) {
                Err(e) => {
                    assert!(overflows, "{src}: {e}");
                    assert_eq!((e.message.as_str(), e.line), ("integer overflow", Some(1)));
                }
                Ok(_) => assert!(!overflows, "{src}"),
            }
        }
    }
}

#[test]
fn string_indexes_off_a_character_boundary_are_errors() {
    for src in [
        r#"let s = "é"; s[0];"#,
        r#"let s = "é"; s[1];"#,
        r#"fn f(s, i) { return s[i]; } f("aé", 1);"#,
        r#"substr("éé", 1, 2);"#,
        r#"substr("éé", 0, 3);"#,
        r#"fn f(s) { return substr(s, 2, 1); } f("éé");"#,
    ] {
        let e = diff(src).unwrap_err();
        assert_eq!(
            e.message, "string index not on a character boundary",
            "{src}"
        );
    }
    // On a boundary, past the end, and negative: as before.
    for src in [
        r#"let s = "aé"; s[0];"#,
        r#"substr("éé", 2, 2);"#,
        r#"substr("éé", 0, 99);"#,
        r#""é"[8];"#,
        r#""é"[99];"#,
        r#""abc"[0 - 1];"#,
        r#"substr("abc", 0 - 5, 2);"#,
        r#"substr("abc", 1, 0 - 2);"#,
    ] {
        diff(src).unwrap();
    }
}

#[test]
fn calls_in_argument_position_and_at_the_depth_cap() {
    diff(
        r#"fn add(a, b) { return a + b; }
           fn twice(f) { return add(f, f); }
           class K { fn init(n) { this.n = n; } fn plus(k) { return this.n + k; } }
           let out = add(add(1, add(2, 3)), twice(add(len("ab"), new K(add(1, 1)).plus(add(2, 2)))));"#,
    )
    .unwrap();
    // A window that starts above live temporaries, and one whose callee
    // needs fewer slots than the caller has left.
    diff(
        r#"fn id(a) { return a; }
           fn wide(a, b, c, d, e) { let s = [a, b, c, d, e]; return len(s) + a; }
           let out = [1 + (2 + (3 + id(4))), id(1) + wide(id(1), 2, id(id(3)), 4, id(5)) * id(2)];"#,
    )
    .unwrap();
    // A dead temporary of the caller never reads as a local of the callee.
    diff(
        r#"fn callee(a) { if (false) { ghost = 1; } return ghost; }
           fn caller() { let big = [1, 2, 3] + "" + [4, 5] + (1 + (2 + (3 + 4))); return callee(1); }
           caller();"#,
    )
    .unwrap_err();
    // Recursion: just inside the cap, and at it.
    let depth = |n: u32| {
        diff(&format!(
            "fn down(n) {{ if (n == 0) {{ return 0; }} return 1 + down(n - 1); }} let out = down({n});"
        ))
    };
    assert!(depth(40).is_ok());
    assert!(depth(63).is_ok(), "64 frames fit");
    let e = depth(64).unwrap_err();
    assert_eq!(e.message, "call depth limit exceeded");
    let e = diff(
        "class R { fn down(n) { if (n == 0) { return 0; } return 1 + this.down(n - 1); } }\nlet out = new R().down(500);",
    )
    .unwrap_err();
    assert_eq!(e.message, "call depth limit exceeded");
}

#[test]
fn a_script_function_shadows_a_builtin_whenever_it_was_defined() {
    // Defined before its caller compiles.
    diff(r#"fn len(x) { return 99; } fn f() { return len("abc"); } let out = f();"#).unwrap();
    // Defined after its caller compiled, and ran.
    let v = diff(
        r#"fn f() { return len("abc"); }
           let a = f();
           fn len(x) { return 99; }
           let b = f();
           let out = [a, b, len("abcd")]; out;"#,
    )
    .unwrap();
    assert_eq!(format!("{v:?}"), "[3, 99, 99]");
    // With the script function's own arity and its own errors.
    diff(r#"fn f() { return len("abc"); } fn len() { return 0; } f();"#).unwrap_err();
    diff(
        r#"fn str(x) { return 1 / 0; }
fn f() { return str(1); }
f();"#,
    )
    .unwrap_err();
    // A name that is neither, defined later.
    diff("fn f() { return later(2); } fn later(x) { return x * 2; } let out = f();").unwrap();
    diff("fn f() { return never(2); } f();").unwrap_err();
}

#[test]
fn operand_space_runs_out_cleanly() {
    // A literal too big for a frame is a compile error under the VM —
    // never a wrong slot — and what fits agrees with the tree-walker.
    let literal = |n: usize| {
        let items: Vec<String> = (0..n).map(|i| (i % 7).to_string()).collect();
        format!(
            "fn f() {{ let a = [{}]; return len(a) + a[{}]; }} let out = f();",
            items.join(", "),
            n - 1
        )
    };
    diff(&literal(2_000)).unwrap();
    let e = Interp::with_engine(Engine::Vm)
        .run(&literal(40_000))
        .unwrap_err();
    assert!(e.message.contains("out of temporaries"), "{e}");
    // 255 arguments, each a call.
    let args: Vec<String> = (0..255).map(|i| format!("id({i})")).collect();
    let params: Vec<String> = (0..255).map(|i| format!("p{i}")).collect();
    diff(&format!(
        "fn id(x) {{ return x; }} fn last({}) {{ return p0 + p254; }} let out = last({});",
        params.join(", "),
        args.join(", ")
    ))
    .unwrap();
    // As deep as the parser lets an expression nest, leaning right (every
    // level holds a temporary) and with calls in the middle.
    let deep = (0..20).fold("x".to_string(), |e, i| format!("({i} + id({e} * 2))"));
    diff(&format!(
        "fn id(v) {{ return v; }} fn f(x) {{ return {deep}; }} let out = f(3);"
    ))
    .unwrap();
}

#[test]
fn short_circuit_values_and_branches() {
    for (a, b) in [
        ("0", "0"),
        ("0", "2"),
        ("3", "0"),
        ("3", "\"s\""),
        ("null", "[1]"),
        ("\"\"", "map()"),
    ] {
        diff(&format!(
            r#"fn f(p, q) {{
                 let v = [p && q, p || q, !(p && q), !p || !q, (p && q) || (q && p), p && (q || p), (p || q) == (q || p)];
                 let n = 0;
                 if (p && q) {{ n = n + 1; }}
                 if (p || q) {{ n = n + 10; }}
                 if (!(p && q) && (p || q)) {{ n = n + 100; }}
                 if (!p) {{ n = n + 1000; }} else {{ n = n + 2000; }}
                 while ((p || q) && n < 5000) {{ n = n + 5000; }}
                 return [v, n];
               }}
               let out = f({a}, {b}); let x = {a} && {b}; let y = {a} || {b}; let z = !({a} || {b}) || ({a} && {b});"#
        ))
        .unwrap();
    }
    // The right side is not evaluated when the left decides — in value
    // position, in a branch, and under a negation.
    diff(
        r#"let out = "";
           fn t(s) { out = out + s; return true; }
           fn f(s) { out = out + s; return false; }
           let x = [f("a") && t("b"), t("c") || f("d"), !(t("e") && f("g")) || t("h")];
           if (f("i") && t("j")) { out = out + "!"; }
           if (!(t("k") || t("l"))) { out = out + "!"; }
           while (f("m") || f("n")) { out = out + "!"; }
           out;"#,
    )
    .unwrap();
}

#[test]
fn new_with_and_without_init() {
    diff(
        r#"class P { fn init(a, b) { this.a = a; this.b = b; return 99; } fn sum() { return this.a + this.b; } }
           class Bare { fn one() { return 1; } }
           fn f() { let p = new P(1, new P(2, 3).sum()); let q = new Bare(); return [p.sum(), q.one(), typeof(q)]; }
           let out = f(); let x = new P(4, 5).sum(); let y = typeof(new Bare(1, 2));"#,
    )
    .unwrap();
    diff("class P { fn init(a) { this.a = a; } } new P();").unwrap_err();
    diff("class P { fn init(a) { this.a = a; } }\nfn f() {\n  return new P(1, 2);\n}\nf();")
        .unwrap_err();
    // `init` that fails, and one that recurses into `new`.
    diff("class P { fn init() { this.a = 1 / 0; } }\nlet x = new P();").unwrap_err();
    diff("class L { fn init(n) { if (n > 0) { this.next = new L(n - 1); } this.n = n; } }\nlet x = new L(5); let out = x.next.next.n;")
        .unwrap();
    diff("class L { fn init(n) { this.next = new L(n + 1); } }\nlet x = new L(0);").unwrap_err();
}

// ---- randomized programs ----

/// A tiny deterministic program generator. It emits closed programs with
/// bounded loops, taint sources, functions, and branches, so every case is
/// safe to run on both engines; the differential harness checks agreement.
struct Gen {
    rng: proptest::TestRng,
    vars: Vec<String>,
}

impl Gen {
    fn expr(&mut self, depth: u32) -> String {
        let leaf = depth == 0 || self.rng.below(3) == 0;
        if leaf {
            match self.rng.below(6) {
                0 => format!("{}", self.rng.below(100)),
                1 => format!("\"s{}\"", self.rng.below(8)),
                2 => "true".into(),
                3 => format!("policy_add(\"t{}\", \"UntrustedData\")", self.rng.below(4)),
                4 if !self.vars.is_empty() => {
                    let i = self.rng.below(self.vars.len() as u64) as usize;
                    self.vars[i].clone()
                }
                _ => format!("{}", self.rng.below(10)),
            }
        } else {
            match self.rng.below(8) {
                0 => format!("({} + {})", self.expr(depth - 1), self.expr(depth - 1)),
                1 => format!("({} * {})", self.expr(depth - 1), self.expr(depth - 1)),
                2 => format!("({} == {})", self.expr(depth - 1), self.expr(depth - 1)),
                3 => format!("({} && {})", self.expr(depth - 1), self.expr(depth - 1)),
                4 => format!("({} || {})", self.expr(depth - 1), self.expr(depth - 1)),
                5 => format!("str({})", self.expr(depth - 1)),
                6 => format!("len(str({}))", self.expr(depth - 1)),
                _ => format!("not {}", self.expr(depth - 1)),
            }
        }
    }

    fn stmt(&mut self, idx: usize) -> String {
        match self.rng.below(4) {
            0 | 1 => {
                let name = format!("v{idx}");
                let s = format!("let {name} = {};", self.expr(2));
                self.vars.push(name);
                s
            }
            2 => format!(
                "if ({}) {{ let t{idx} = {}; }} else {{ let e{idx} = {}; }}",
                self.expr(1),
                self.expr(2),
                self.expr(2)
            ),
            _ => format!("{};", self.expr(2)),
        }
    }
}

#[test]
fn random_programs_agree() {
    let seed = proptest::seed_from_name("random_programs_agree");
    for case in 0..200u64 {
        let mut g = Gen {
            rng: proptest::TestRng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)),
            vars: Vec::new(),
        };
        let n = 1 + g.rng.below(5) as usize;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&g.stmt(i));
            src.push('\n');
        }
        // Tail expression so the program result is interesting.
        if !g.vars.is_empty() {
            src.push_str(&format!("{};", g.vars[g.vars.len() - 1]));
        }
        let _ = diff(&src); // agreement is the assertion; errors are fine
    }
}

#[test]
fn random_functions_agree() {
    let seed = proptest::seed_from_name("random_functions_agree");
    for case in 0..100u64 {
        let mut g = Gen {
            rng: proptest::TestRng::new(seed ^ (case.wrapping_mul(0xD134_2543_DE82_EF95) | 1)),
            vars: vec!["p".into(), "q".into()],
        };
        let body_a = g.expr(2);
        let body_b = g.expr(2);
        let arg_a = g.expr(1);
        let arg_b = g.expr(1);
        let src = format!(
            "fn f(p, q) {{\n  if ({body_a} == {body_b}) {{ return {body_a}; }}\n  return {body_b};\n}}\nlet x = f({arg_a}, {arg_b});\nx;"
        );
        let _ = diff(&src);
    }
}

/// Function bodies over locals: statements that assign (with and without
/// `let`, so some locals may be unbound where they are read or written,
/// and some share a global's name), loops with operand guards, subscripts
/// and labeled ints — the shapes where the register compiler decides
/// between reading in place and copying, and between binding and the PHP
/// rule.
impl Gen {
    fn local_operand(&mut self) -> String {
        match self.rng.below(7) {
            0 => format!("{}", self.rng.below(5)),
            1 => "w[i % 3]".into(),
            2 => "g".into(),
            3 => "bump()".into(),
            4 => "policy_add(2, \"UntrustedData\")".into(),
            _ => ["p", "q", "i", "acc", "late", "g"][self.rng.below(6) as usize].into(),
        }
    }

    fn local_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return self.local_operand();
        }
        let op = [
            "+", "-", "*", "+", "-", "*", "/", "%", "<", "==", "&&", "||",
        ][self.rng.below(12) as usize];
        format!(
            "({} {op} {})",
            self.local_expr(depth - 1),
            self.local_expr(depth - 1)
        )
    }

    fn local_stmt(&mut self, depth: u32) -> String {
        let target = ["acc", "late", "g", "p", "i"][self.rng.below(5) as usize];
        match self.rng.below(6) {
            0 => format!("let {target} = {};", self.local_expr(2)),
            1 | 2 => format!("{target} = {};", self.local_expr(2)),
            3 if depth > 0 => format!(
                "if ({}) {{ {} }} else {{ {} }}",
                self.local_expr(1),
                self.local_stmt(depth - 1),
                self.local_stmt(depth - 1)
            ),
            4 if depth > 0 => format!(
                "let k = 0; let lim = {} % 4; while (k < lim) {{ {} k = k + 1; }}",
                self.local_operand(),
                self.local_stmt(depth - 1)
            ),
            _ => format!("w[{} % 3] = {};", self.rng.below(5), self.local_expr(1)),
        }
    }
}

#[test]
fn random_function_bodies_agree() {
    let seed = proptest::seed_from_name("random_function_bodies_agree");
    for case in 0..300u64 {
        let mut g = Gen {
            rng: proptest::TestRng::new(seed ^ (case.wrapping_mul(0xA24B_AED4_963E_E407) | 1)),
            vars: Vec::new(),
        };
        let n = 2 + g.rng.below(5);
        let body: Vec<String> = (0..n).map(|_| g.local_stmt(2)).collect();
        // Half the time `acc` is bound from the start and `late` has a
        // global behind it; otherwise reading them may fail.
        let (acc, late) = match g.rng.below(2) {
            0 => ("let acc = 0;", "let late = 8;"),
            _ => ("", ""),
        };
        let src = format!(
            "let g = 3; let c = 0; {late}\nfn bump() {{ c = c + 1; g = g + c; return c; }}\n\
             fn f(p, q) {{\n  let i = 1; let w = [4, 0, 2]; {acc}\n  {}\n  return [p, q, i, w, g];\n}}\n\
             let out = f({}, policy_add(5, \"AuthenticData\"));\nlet x = g;",
            body.join("\n  "),
            g.rng.below(4)
        );
        let _ = diff(&src); // agreement is the assertion; errors are fine
    }
}

/// `x = x + k`, `w[i]`, `while (a < b)` and const-operand arithmetic each
/// run in place over unlabeled ints; these programs force each shape down
/// its general path (labels, strings, unbound slots, out-of-range indexes)
/// where the semantics must still match.
#[test]
fn fused_op_slow_paths_match() {
    // Labeled increment: the in-place integer fast path must not drop taint.
    diff(
        r#"fn f() { let i = policy_add(1, "UntrustedData"); i = i + 1; return policy_get(i); }
           let x = f(); x;"#,
    )
    .unwrap();
    // `s = s + 1` on a string concatenates; taint spans must line up.
    diff(
        r#"fn f() { let s = policy_add("v", "UntrustedData"); s = s + 1; return s; }
           let x = f(); x;"#,
    )
    .unwrap();
    // Increment of an enclosing global through an unbound slot.
    diff(r#"let x = 10; fn bump() { x = x + 5; } bump(); x;"#).unwrap();
    // Fused index with an out-of-range subscript (errors on both engines,
    // same message and line) and a map subscript.
    diff(r#"fn f() { let w = [1, 2]; let i = 9; return w[i]; } let x = f(); x;"#).unwrap_err();
    diff(r#"fn f() { let w = map(); w["a"] = 7; let i = "a"; return w[i]; } let x = f(); x;"#)
        .unwrap();
    // Fused while-guard over non-integer operands.
    diff(
        r#"fn f() { let i = "a"; let n = "c"; let out = 0;
                    while (i < n) { i = i + "z"; out = out + 1; if (out > 3) { return out; } }
                    return out; }
           let x = f(); x;"#,
    )
    .unwrap();
    // Const-operand division by zero still errors with the right line.
    diff("fn f(n) { return n % 0; }\nlet x = f(3);").unwrap_err();
    // Labeled accumulator through the full fused loop shape.
    diff(
        r#"fn sum(w) { let acc = policy_add(0, "UntrustedData"); let i = 0; let n = len(w);
                       while (i < n) { acc = (acc * 33 + w[i]) % 65521; i = i + 1; }
                       return acc; }
           let x = sum([3, 1, 4, 1, 5]); policy_get(x);"#,
    )
    .unwrap();
}
