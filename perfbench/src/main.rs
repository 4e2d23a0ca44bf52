//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload classify-sound --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints human-readable notes on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics with `--trace 1`, which also writes the spans to
//! `.perfbench_out/`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ppcs_perfbench::{run, Workload};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: ppcs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    // The run must end within 180 s even if the program under test
    // hangs: give up without a result line before that.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("ppcs-perfbench: run exceeded 170 s, giving up");
        std::process::exit(3);
    });
    let span_file = trace.then(|| {
        PathBuf::from(".perfbench_out").join(format!("spans-{}-{seed}.json", workload.name()))
    });
    let outcome = run(workload, seed, seconds, trace, span_file.as_deref());
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for m in &outcome.metrics {
        eprintln!("{}: {} = {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
