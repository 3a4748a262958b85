//! Import a LANL-style failure log and check the paper's conclusions
//! against it.
//!
//! Run with a path to your own export of the public LANL release, or with
//! no arguments to demonstrate on a bundled-in-memory sample. The loader
//! tells a LANL export from native CSV or a packed `.hpct` store by its
//! contents, so any of the three works.
//!
//! ```sh
//! cargo run -p hpcfail --example lanl_import [failures.csv]
//! ```

use hpcfail::analysis::findings;
use hpcfail::prelude::*;
use hpcfail::records::io::read_trace;

/// A small LANL-style sample (header-driven, MM/DD/YYYY timestamps,
/// LANL's cause vocabulary) used when no file is given.
const SAMPLE: &str = "\
system,nodenum,node purpose,started,fixed,cause
20,22,graphics,06/28/1999 14:30,06/28/1999 20:45,hardware
20,21,graphics,06/28/1999 14:30,06/28/1999 16:00,hardware
20,5,compute,07/02/1999 03:15,07/02/1999 04:00,software
20,5,compute,07/02/1999 09:15,07/02/1999 10:00,undetermined
19,3,compute,03/14/1998 11:00,03/15/1998 02:30,facilities
7,100,compute,09/09/2002 16:20,09/09/2002 17:40,network
7,0,fe,09/10/2002 10:00,09/10/2002 10:45,human error
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bytes = match std::env::args().nth(1) {
        Some(path) => {
            println!("importing {path}…");
            std::fs::read(&path)?
        }
        None => {
            println!("no file given; using the bundled sample\n");
            SAMPLE.as_bytes().to_vec()
        }
    };
    // Rows whose repair precedes the failure start (clock or data-entry
    // glitches in the raw release) are set aside, not fatal.
    let import = read_trace(&bytes, IngestPolicy::FailFast)?;
    let skipped = import
        .quarantine
        .iter()
        .filter(|q| q.issue == QualityIssue::InvertedInterval)
        .count();
    println!(
        "imported {} records ({skipped} glitched rows skipped)",
        import.trace.len()
    );

    // Basic composition.
    let index = import.trace.index();
    let by_cause = index.all().count_by_cause();
    println!("\nrecords by root cause:");
    for cause in RootCause::ALL {
        if let Some(n) = by_cause.get(&cause) {
            println!("  {cause:<12} {n}");
        }
    }

    // For a real multi-year import, check the paper's Section-8
    // conclusions; the tiny bundled sample will fail most of them, which
    // is itself the demonstration.
    let catalog = Catalog::lanl();
    match findings::evaluate_indexed(&index, &catalog) {
        Ok(result) => {
            println!("\nSection-8 conclusions on this trace:");
            for f in &result.findings {
                println!("  [{}] {}", if f.holds { "ok" } else { "--" }, f.claim);
                println!("        {}", f.evidence);
            }
        }
        Err(e) => {
            println!("\ntrace too small for the full findings check: {e}");
            println!("(import the full multi-year log for a meaningful evaluation)");
        }
    }
    Ok(())
}
