//! Runs one fidesperf workload and prints its result as the last line
//! of standard output.
//!
//! ```text
//! fidesperf --workload commit_uniform --seed 1 --seconds 10 --trace 0
//! ```

use std::path::Path;
use std::process::ExitCode;

use fidesperf::host::{calibration_ms, HostInfo};
use fidesperf::report::{json_num, json_str, metrics_json, END_TO_END, PER_LAYER};
use fidesperf::{Options, STEAL_KEY, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("fidesperf: {problem}");
    eprintln!(
        "usage: fidesperf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let host = HostInfo::read();
    let calib_before = calibration_ms();
    let outcome = fidesperf::run(&opts);
    let calib_after = calibration_ms();

    let trace_file = if opts.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", opts.workload, opts.seed));
        match fidesperf::spans::write_chrome(&path, &outcome.spans) {
            Ok(()) => path.display().to_string(),
            Err(e) => {
                eprintln!("fidesperf: could not write {}: {e}", path.display());
                String::new()
            }
        }
    } else {
        String::new()
    };
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    let steal = outcome.layers.get(STEAL_KEY).copied().unwrap_or(0.0);
    println!(
        "{{\"diagnostics\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"kernel\": {}, \"steal_pct\": {}, \"calibration_before_ms\": {}, \
         \"calibration_after_ms\": {}, \"counts\": {{{}}}, \"checks\": {}, \"spans\": {}, \
         \"trace_file\": {}}}}}",
        json_str(&opts.workload),
        opts.seed,
        json_num(opts.seconds),
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.kernel),
        json_num(steal),
        json_num(calib_before),
        json_num(calib_after),
        counts.join(", "),
        outcome.checks.to_json(),
        outcome.spans.len(),
        json_str(&trace_file),
    );
    let failed_checks = outcome.checks.failed();
    if !failed_checks.is_empty() {
        eprintln!("fidesperf: failed checks: {}", failed_checks.join("; "));
    }
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let values = if opts.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.all_passed(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(catalogue, values)
    );
    ExitCode::SUCCESS
}
