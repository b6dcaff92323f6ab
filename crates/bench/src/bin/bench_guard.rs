//! `bench_guard` — the CI perf-regression gate.
//!
//! Compares a freshly produced `BENCH_*.json` against the committed
//! copy and fails (non-zero exit) when a higher-is-better headline
//! metric regressed by more than the allowed fraction:
//!
//! ```text
//! bench_guard <committed.json> <fresh.json> \
//!     [--metric headline_speedup] [--max-regression 0.30]
//! ```
//!
//! Improvements always pass (and are reported, so a PR that moves the
//! number up knows to refresh the committed copy).

use std::process::ExitCode;
use tydi_bench::read_metric;

struct Args {
    committed: String,
    fresh: String,
    metric: String,
    max_regression: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut metric = "headline_speedup".to_string();
    let mut max_regression = 0.30;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metric" => {
                metric = args.next().ok_or("--metric needs a value")?;
            }
            "--max-regression" => {
                let raw = args.next().ok_or("--max-regression needs a value")?;
                max_regression = raw
                    .parse::<f64>()
                    .map_err(|_| format!("bad --max-regression `{raw}`"))?;
                if !(0.0..1.0).contains(&max_regression) {
                    return Err("--max-regression must be in [0, 1)".into());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => positional.push(other.to_string()),
        }
    }
    let [committed, fresh] = <[String; 2]>::try_from(positional)
        .map_err(|_| "usage: bench_guard <committed.json> <fresh.json> [options]".to_string())?;
    Ok(Args {
        committed,
        fresh,
        metric,
        max_regression,
    })
}

fn load_metric(path: &str, metric: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    read_metric(&text, metric).ok_or_else(|| format!("`{path}` has no numeric metric `{metric}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_guard: {message}");
            return ExitCode::from(2);
        }
    };
    let committed = match load_metric(&args.committed, &args.metric) {
        Ok(v) => v,
        Err(message) => {
            eprintln!("bench_guard: {message}");
            return ExitCode::from(2);
        }
    };
    let fresh = match load_metric(&args.fresh, &args.metric) {
        Ok(v) => v,
        Err(message) => {
            eprintln!("bench_guard: {message}");
            return ExitCode::from(2);
        }
    };
    let floor = committed * (1.0 - args.max_regression);
    println!(
        "bench_guard: {} committed {committed:.3}, fresh {fresh:.3}, \
         floor {floor:.3} (-{:.0}%)",
        args.metric,
        args.max_regression * 100.0
    );
    if fresh < floor {
        eprintln!(
            "bench_guard: FAIL — `{}` regressed more than {:.0}% \
             ({committed:.3} -> {fresh:.3})",
            args.metric,
            args.max_regression * 100.0
        );
        return ExitCode::FAILURE;
    }
    if fresh > committed {
        println!(
            "bench_guard: `{}` improved ({committed:.3} -> {fresh:.3}); \
             consider refreshing the committed copy",
            args.metric
        );
    }
    println!("bench_guard: OK");
    ExitCode::SUCCESS
}
