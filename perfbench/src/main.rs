//! Command-line entry point; see the crate docs and `README.md`.

use perfbench::run::{run, Args};
use std::path::Path;

/// Set-up passes per run, spread evenly through the measured phase.
const SETUP_REPS: usize = 7;

/// Where a traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = ".bench_build/perfbench";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(args, SETUP_REPS);
    if outcome.metrics.is_empty() {
        std::process::exit(1);
    }
    if args.trace {
        let path =
            Path::new(SPAN_DIR).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, &outcome.spans));
        match written {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
        }
    }
    println!("host: {}", outcome.host);
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
