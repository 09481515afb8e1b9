//! Server-side script injection and the CodeApproval import filter
//! (paper §5.2, Figure 6), running on the RSL bytecode VM.
//!
//! The interpreter runs the compiled engine; the tree-walker is kept as
//! a differential oracle for tests that pin it.
//! The import filter is a data-flow check on the imported bytes, so the
//! engine executing the app makes no difference to the defense — this
//! demo asserts the attack fails closed on the VM path.
//!
//! ```text
//! cargo run --example script_injection
//! ```

use resin::lang::Interp;

fn main() {
    let mut interp = Interp::new();
    println!("engine: {:?}", interp.engine());

    // Install the application and tag its code as approved (Figure 6's
    // make_file_executable), then arm the interpreter's import filter.
    interp
        .run(
            r#"
        mkdir("/app");
        mkdir("/uploads");
        file_write("/app/main.rsl", "let booted = 1; print(\"app booted\");");
        make_executable("/app/main.rsl");
        require_code_approval();
        import("/app/main.rsl");
    "#,
        )
        .expect("install");
    print!("{}", interp.print_output());

    // The adversary uploads a script (uploads are data — no approval).
    interp
        .run(r#"file_write("/uploads/shell.rsl", "print(\"owned!\");");"#)
        .expect("upload");

    // The application is tricked into importing it (theme include /
    // direct request — any path leads through the same filter).
    match interp.run(r#"import("/uploads/shell.rsl");"#) {
        Ok(_) => panic!("adversary code ran!"),
        Err(e) => {
            assert!(e.violation, "blocked by the policy filter, not a bug");
            println!("import blocked: {e}");
        }
    }

    // Approved code still loads fine.
    interp
        .run(
            r#"
        file_write("/app/extra.rsl", "print(\"extra module loaded\");");
        make_executable("/app/extra.rsl");
        import("/app/extra.rsl");
    "#,
        )
        .expect("approved import");
    print!("{}", interp.print_output());
}
