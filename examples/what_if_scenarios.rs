//! What-if scenarios as a declarative fault-injection campaign: the
//! perturbations that used to be hand-wired builder calls are now axes
//! of a campaign spec, expanded into a deterministic cell grid and run
//! on the crash-proof campaign runner.
//!
//! ```sh
//! cargo run -p hpcfail --release --example what_if_scenarios
//! ```

use hpcfail::prelude::*;
use hpcfail::scenario::{render_plan, render_results, render_summary};

const SPEC: &str = r#"
# How do the paper's headline statistics respond to reliability and
# staffing what-ifs, on a measured system and on an exascale projection?
[campaign]
name = "what-if"
seed = 2006

[fleet]
systems = [20]

[[projection]]
name = "exascale_100k"
nodes = 100000
base_system = 18

[grid]
rate_scale = [0.5, 1.0, 2.0]   # hardware twice as good / as measured / twice as bad
repair_scale = [1.0, 3.0]      # measured repair times vs a 3x-slower crew
cause_mix = ["lanl", "hardware-heavy"]
checkpoint = ["none", "young"] # and what it costs an application
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = CampaignSpec::parse(SPEC)?;
    println!("{}", render_plan(&spec));

    let result = run_campaign(&spec, &RunOptions::default())?;
    println!("{}", render_results(&spec, &result));

    // The same campaign again — same seed, different worker count — is
    // byte-identical: parallelism can never change the science.
    let again = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(2),
            ..Default::default()
        },
    )?;
    assert_eq!(render_results(&spec, &again), render_results(&spec, &result));
    println!(
        "re-run on a different worker count: byte-identical\n\n{}",
        render_summary(&result)
    );
    println!(
        "reading: tripling repair times costs the machine several times the \
         availability that halving the hardware failure rate buys back; rows \
         that differ only in the checkpoint column share one synthesized \
         trace, so the waste column prices each what-if for an application \
         on the same failures; and the 100k-node projection rows show the \
         paper's exascale extrapolation under the same knobs."
    );
    Ok(())
}
