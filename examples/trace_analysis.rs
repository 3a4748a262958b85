//! Analyze a failure trace from a CSV file.
//!
//! Demonstrates the ingestion path a site with real failure logs would
//! use: write/read the toolkit's CSV format and run the paper's analyses
//! on whatever comes in. Run with a path to analyze your own file, or
//! with no arguments to round-trip a generated trace through a
//! temporary file.
//!
//! ```sh
//! cargo run -p hpcfail --example trace_analysis [trace.csv]
//! ```

use hpcfail::analysis::{periodic, rates, repair, report};
use hpcfail::prelude::*;
use hpcfail::records::io::{read_trace, write_csv};
use std::fs::File;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // No input given: generate a site trace and write it out so
            // the example exercises the full round trip.
            let trace = hpcfail::synth::scenario::site_trace(42)?;
            let path = std::env::temp_dir().join("hpcfail_example_trace.csv");
            write_csv(&trace, File::create(&path)?)?;
            println!("wrote {} records to {}", trace.len(), path.display());
            path
        }
    };

    let bytes = std::fs::read(&path)?;
    let trace = read_trace(&bytes, IngestPolicy::FailFast)?.trace;
    println!("read {} records from {}\n", trace.len(), path.display());

    let catalog = Catalog::lanl();

    // Failures per year per system (Fig. 2(a)).
    let rate_analysis = rates::analyze_indexed(&trace.index(), &catalog)?;
    let mut table = report::TextTable::new(&["system", "hw", "failures/yr", "per proc"]);
    for r in &rate_analysis.rates {
        if r.failures == 0 {
            continue;
        }
        table.row(&[
            &r.system.to_string(),
            &r.hardware.to_string(),
            &report::fmt_num(r.per_year),
            &report::fmt_num(r.per_proc_year),
        ]);
    }
    println!("{}", table.render());

    // Hour-of-day / day-of-week pattern (Fig. 5).
    let pattern = periodic::analyze_indexed(&trace.index())?;
    println!(
        "peak-to-trough by hour: {:.2} (paper ~2); weekday/weekend: {:.2} (paper ~2)",
        pattern.hourly_peak_to_trough(),
        pattern.weekday_to_weekend()
    );

    // Repair-time statistics by root cause (Table 2).
    let table2 = repair::by_cause_indexed(&trace.index())?;
    let mut t2 = report::TextTable::new(&["cause", "mean (min)", "median (min)", "C^2"]);
    for row in &table2.rows {
        let cause = row.cause.map(|c| c.to_string()).unwrap_or_default();
        t2.row(&[
            &cause,
            &report::fmt_num(row.summary.mean),
            &report::fmt_num(row.summary.median),
            &report::fmt_num(row.summary.c2),
        ]);
    }
    println!("\n{}", t2.render());
    Ok(())
}
