//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint -- --check            # CI gate: fail on fresh errors
//! cargo run -p detlint --                    # report everything, exit 0
//! cargo run -p detlint -- --write-baseline   # grandfather current findings
//! ```
//!
//! Options: `--root <dir>` (default: nearest ancestor with a
//! `Cargo.toml` containing `[workspace]`, else cwd), `--baseline <file>`
//! (default: `<root>/detlint.baseline`).

// detlint is a terminal tool; printing is its job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{Baseline, Finding, Severity};

struct Opts {
    check: bool,
    write_baseline: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        check: false,
        write_baseline: false,
        root: None,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => opts.check = true,
            "--write-baseline" => opts.write_baseline = true,
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a file")?));
            }
            "--help" | "-h" => {
                println!(
                    "detlint — replay-safety lint for event-path code\n\n\
                     USAGE: detlint [--check] [--write-baseline] \
                     [--root <dir>] [--baseline <file>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    let root = opts
        .root
        .or_else(detlint::workspace_root)
        .unwrap_or_else(|| std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("detlint.baseline"));

    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = Baseline::parse(&baseline_text);

    let report = match detlint::run_scan(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.write_baseline {
        let all: Vec<Finding> = report
            .baselined
            .iter()
            .chain(report.fresh.iter())
            .cloned()
            .collect();
        let text = Baseline::render(&all);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("detlint: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "detlint: wrote {} entries to {}",
            all.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    for f in &report.fresh {
        println!("{}", f.render());
    }
    let warnings = report
        .fresh
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    let errors = report.fresh_errors();
    println!(
        "detlint: {} files, {} fns scanned; {errors} error(s), {warnings} warning(s), {} baselined",
        report.files_scanned,
        report.fns_scanned,
        report.baselined.len()
    );

    if opts.check && errors > 0 {
        eprintln!(
            "detlint: --check failed ({errors} unbaselined error(s)); fix them, \
             `// detlint: allow(<rule>) <reason>` them, or --write-baseline"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
