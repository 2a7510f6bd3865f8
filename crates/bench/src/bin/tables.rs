//! Regenerates the paper's quantitative statements as text tables.
//!
//! ```text
//! cargo run -p netdecomp-bench --release --bin tables -- all
//! cargo run -p netdecomp-bench --release --bin tables -- e1 e4 --full
//! cargo run -p netdecomp-bench --release --bin tables -- e5 --json out.json
//! ```
//!
//! Every table prints *paper bound vs. measured value*; the crate docs
//! index the experiments. With `--json <file>` the tables are additionally
//! written as a JSON array for machine consumption.

use netdecomp_bench::{experiments, table, Effort};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = if args.iter().any(|a| a == "--full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut skip_next = false;
    let mut ids: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--json" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .cloned()
        .collect();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| (*s).to_string()).collect();
    }
    for id in &ids {
        if !experiments::ALL.contains(&id.as_str()) {
            eprintln!(
                "unknown experiment `{id}`; known: {}",
                experiments::ALL.join(", ")
            );
            std::process::exit(2);
        }
    }

    println!(
        "# netdecomp experiment run ({} mode)\n",
        match effort {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    );
    let mut all_tables = Vec::new();
    for id in ids {
        let start = std::time::Instant::now();
        let tables = experiments::run(&id, effort);
        for t in &tables {
            println!("{t}");
        }
        println!(
            "[{id}: {} table(s) in {:.1}s]\n",
            tables.len(),
            start.elapsed().as_secs_f64()
        );
        all_tables.extend(tables);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, table::to_json(&all_tables)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}
