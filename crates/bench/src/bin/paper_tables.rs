//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p resin-bench --bin paper_tables            # everything
//! cargo run --release -p resin-bench --bin paper_tables -- table5  # one table
//! ```
//!
//! Accepted selectors: `table1 table2 table3 table4 table5 hotcrp-page all`.

use resin_bench::survey::{table1, table1_total, table2, table3};
use resin_bench::table5::{
    add_bench, assign_bench, call_bench, concat_bench, file_bench, sql_bench,
};
use resin_bench::{hotcrp_page_workload, time_ns, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    if want("table1") {
        print_table1();
    }
    if want("table2") {
        print_table2();
    }
    if want("table3") {
        print_table3();
    }
    if want("table4") {
        print_table4();
    }
    if want("table5") {
        print_table5();
    }
    if want("hotcrp-page") {
        print_hotcrp_page();
    }
}

fn print_table1() {
    println!("== Table 1: Top CVE security vulnerabilities of 2008 ==");
    println!(
        "{:<32} {:>6} {:>10}",
        "Vulnerability", "Count", "Percentage"
    );
    for r in table1() {
        println!(
            "{:<32} {:>6} {:>9.1}%",
            r.vulnerability, r.count, r.percentage
        );
    }
    println!("{:<32} {:>6} {:>9.1}%\n", "Total", table1_total(), 100.0);
}

fn print_table2() {
    println!("== Table 2: Top Web site vulnerabilities of 2007 ==");
    println!("{:<32} {:>18}", "Vulnerability", "Vulnerable sites");
    for r in table2() {
        println!("{:<32} {:>17.1}%", r.vulnerability, r.vulnerable_sites_pct);
    }
    println!();
}

fn print_table3() {
    println!("== Table 3: The RESIN API -> this reproduction ==");
    println!("{:<42} {:<14} Implemented by", "Function", "Caller");
    for r in table3() {
        println!("{:<42} {:<14} {}", r.function, r.caller, r.implemented_by);
    }
    println!();
}

fn print_table4() {
    println!("== Table 4: Preventing vulnerabilities with RESIN assertions ==");
    println!(
        "{:<28} {:<7} {:>9} {:>10} {:>6} {:>11} {:>10}  Vulnerability type",
        "Application", "Lang", "App LOC", "Asrt LOC", "Known", "Discovered", "Prevented"
    );
    let rows = resin_apps::table4();
    for r in &rows {
        println!(
            "{:<28} {:<7} {:>9} {:>10} {:>6} {:>11} {:>10}  {}{}",
            r.application,
            r.lang,
            r.paper_app_loc,
            r.assertion_loc,
            r.known,
            r.discovered,
            r.prevented,
            r.vuln_type,
            if r.reproduced {
                ""
            } else {
                "  [NOT REPRODUCED]"
            }
        );
    }
    let total: usize = rows.iter().map(|r| r.prevented).sum();
    println!(
        "Exploits verified both directions (succeed w/o assertion, prevented with): {total} total prevented\n"
    );
}

fn print_table5() {
    println!("== Table 5: Microbenchmarks (average time per operation) ==");
    println!(
        "{:<22} {:>14} {:>16} {:>19}",
        "Operation", "Unmodified", "RESIN no policy", "RESIN empty policy"
    );

    let row = |name: &str, times: [f64; 3]| {
        println!(
            "{:<22} {:>11.3} us {:>13.3} us {:>16.3} us   (x{:.2}, x{:.2})",
            name,
            times[0] / 1000.0,
            times[1] / 1000.0,
            times[2] / 1000.0,
            times[1] / times[0],
            times[2] / times[0],
        );
    };

    // Interpreter operations: ns/op over batches of OPS operations.
    let batches = 30u64;
    let m = |mk: &dyn Fn(Config) -> resin_bench::table5::InterpBench| {
        let mut out = [0f64; 3];
        for (i, c) in Config::ALL.iter().enumerate() {
            let mut b = mk(*c);
            out[i] = b.ns_per_op(batches);
        }
        out
    };
    row("Assign variable", m(&assign_bench));
    row("Function call", m(&call_bench));
    row("String concat", m(&concat_bench));
    row("Integer addition", m(&add_bench));

    // File operations.
    let iters = 3000u64;
    let mut fopen = [0f64; 3];
    let mut fread = [0f64; 3];
    let mut fwrite = [0f64; 3];
    for (i, c) in Config::ALL.iter().enumerate() {
        let mut b = file_bench(*c);
        fopen[i] = time_ns(iters, || b.open_once());
        fread[i] = time_ns(iters, || b.read_once());
        fwrite[i] = time_ns(iters, || b.write_once());
    }
    row("File open", fopen);
    row("File read, 1KB", fread);
    row("File write, 1KB", fwrite);

    // SQL operations.
    let iters = 400u64;
    let mut sel = [0f64; 3];
    let mut sel6 = [0f64; 3];
    let mut ins = [0f64; 3];
    let mut del = [0f64; 3];
    for (i, c) in Config::ALL.iter().enumerate() {
        let mut b = sql_bench(*c);
        sel[i] = time_ns(iters, || b.select_once());
        sel6[i] = time_ns(iters, || b.select_six_once());
        let mut b = sql_bench(*c);
        ins[i] = time_ns(iters, || b.insert_once());
        let mut b = sql_bench(*c);
        del[i] = time_ns(iters, || b.delete_miss_once());
    }
    row("SQL SELECT (10 col)", sel);
    row("SQL SELECT (6 col)", sel6);
    row("SQL INSERT (10 col)", ins);
    row("SQL DELETE", del);
    println!(
        "(Ratios in parentheses: column/unmodified. The paper's shape: scalar ops ~1.1x\n\
         with no policy; concat/add grow with a policy attached; SQL dominates; DELETE\n\
         needs no rewriting and stays cheap; 6-column SELECT cheaper than 10-column.)\n"
    );
}

fn print_hotcrp_page() {
    println!("== Section 7.1: HotCRP paper page generation ==");
    let iters = 2000u64;
    let mut plain_site = resin_bench::hotcrp_site(false);
    let plain_ns = time_ns(iters, || {
        std::hint::black_box(resin_bench::hotcrp_page_once(&mut plain_site));
    });
    let mut resin_site = resin_bench::hotcrp_site(true);
    let resin_ns = time_ns(iters, || {
        std::hint::black_box(resin_bench::hotcrp_page_once(&mut resin_site));
    });
    let size = hotcrp_page_workload(true);
    println!("Page size: {:.1} KB (paper: 8.5 KB)", size as f64 / 1024.0);
    println!(
        "Unmodified: {:.3} ms/page ({:.1} pages/s)",
        plain_ns / 1e6,
        1e9 / plain_ns
    );
    println!(
        "RESIN:      {:.3} ms/page ({:.1} pages/s)",
        resin_ns / 1e6,
        1e9 / resin_ns
    );
    println!(
        "CPU overhead: {:.1}% (paper: 33% — 66 ms vs 88 ms on 2008 hardware)\n",
        (resin_ns / plain_ns - 1.0) * 100.0
    );
}
