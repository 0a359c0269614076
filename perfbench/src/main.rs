//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes (lines starting with `#`), then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Optional: `--doc-bytes <n>` (XML size of each
//! generated Hospital document, default 375000, about a scale-0.09
//! document).

use perfbench::bench::{self, Config, Outcome, Workload};
use perfbench::report;
use perfbench::{churn::Churn, subjects::Subjects, views::Views};
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["views-mht", "subjects-ecb", "publish-churn"];

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut doc_bytes = 375_000;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--doc-bytes" => doc_bytes = value.parse::<usize>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        doc_bytes,
        dir,
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {workload} seed {} seconds {} trace {} cpus {cpus}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    // Inputs and oracles are the benchmark's own work, outside set-up.
    let outcome = match workload.as_str() {
        "views-mht" => measure(&Views::new(&cfg), &cfg),
        "subjects-ecb" => measure(&Subjects::new(&cfg), &cfg),
        _ => measure(&Churn::new(&cfg), &cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let outcome = outcome?;

    let mut notes = String::new();
    let (tally, metrics, title) = if cfg.trace {
        let metrics = report::per_layer(&outcome, &mut notes);
        let traced = outcome.traced.as_ref().expect("traced run");
        let path =
            PathBuf::from(".bench_run").join(format!("trace-{workload}-seed{}.tsv", cfg.seed));
        std::fs::write(&path, traced.ledger.to_tsv())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push_str(&format!("spans written to {}\n", path.display()));
        (&traced.tally, metrics, "per-layer metrics (traced slices)")
    } else {
        (&outcome.plain, report::end_to_end(&outcome, &mut notes), "end-to-end metrics")
    };
    for line in notes.lines() {
        println!("# {line}");
    }
    print!("{}", report::print_block(title, &metrics));
    if tally.attempted == 0 {
        return Err("no operation completed in the measured interval".into());
    }
    let correct = tally.mismatches == 0 && outcome.setup_pubs.mismatches == 0;
    println!("{}", report::json_line(correct, tally, &metrics));
    Ok(())
}

fn measure<W: Workload>(w: &W, cfg: &Config) -> Result<Outcome, String> {
    println!("# inputs: {}", w.describe());
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    bench::run(w, cfg)
}
