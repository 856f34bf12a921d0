//! E9 (§8): "for all the 556 pages the look & feel has been produced by
//! only three XSL style sheets (one for the B2C site views, one for the
//! B2B site views, and one for the internal content management site
//! views)."
//!
//! We style the full Acer-Euro-scale template set with three rule sets and
//! compare the presentation artifact counts against per-page hand styling.
//! We also regenerate §4's mouse-over example: one rule edit restyles
//! every index unit of the application.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_presentation_artifacts
//! ```

use presentation::{RuleSet, Run, Stylesheet};
use webratio::{synthesize, SynthSpec};

fn main() {
    println!("== E9: presentation artifact counts at Acer-Euro scale (§8/§5) ==\n");
    let spec = SynthSpec::acer_euro();
    let app = synthesize(&spec);
    let generated = app.generate().expect("generation");
    let skeletons = &generated.skeletons;

    // the three §8 style families: B2C, B2B, internal CMS
    let mut b2c = RuleSet::default_desktop("b2c");
    b2c.page_rules[0].banner = "Acer Europe".into();
    let mut b2b = RuleSet::default_desktop("b2b");
    b2b.page_rules[0].banner = "Acer Channel Extranet".into();
    let cms = RuleSet::minimal_device("cms");
    let families = [&b2c, &b2b, &cms];

    let t0 = std::time::Instant::now();
    let mut styled_pages = 0usize;
    let mut styled_bytes = 0usize;
    for rs in &families {
        for sk in skeletons {
            let styled = rs.runs(sk, |_| Some(0)).expect("every slot is placed");
            styled_bytes += styled
                .runs
                .iter()
                .map(|r| match r {
                    Run::Literal(markup) => markup.len(),
                    Run::Slot(_) | Run::Nav => 0,
                })
                .sum::<usize>();
            styled_pages += 1;
        }
    }
    let unit_types = [
        "data",
        "index",
        "multidata",
        "multichoice",
        "scroller",
        "entry",
        "hierarchy",
    ];
    let css_rules: usize = families
        .iter()
        .map(|rs| Stylesheet::for_rule_set(rs, &unit_types).rule_count())
        .sum();

    println!(
        "styled {} pages x {} rule sets = {} templates ({} KiB) in {:?}",
        skeletons.len(),
        families.len(),
        styled_pages,
        styled_bytes / 1024,
        t0.elapsed()
    );
    println!("\npresentation artifacts to maintain:");
    println!("  approach              | files");
    println!("  ----------------------+------");
    println!(
        "  per-page hand styling | {:>5}  (one styled template per page)",
        skeletons.len()
    );
    println!(
        "  rule sets (§5)        | {:>5}  (3 rule sets + 3 CSS files, {} CSS rules)",
        families.len() * 2,
        css_rules
    );

    // §4's example: add a mouse-over effect to ALL index units
    let mut b2c2 = b2c.clone();
    b2c2.unit_rules[0].mouse_over_effect = true;
    let index_units = generated
        .descriptors
        .units
        .iter()
        .filter(|u| u.unit_type == "index")
        .count();
    println!(
        "\n§4 scenario — add a mouse-over effect to every index unit:\n\
         hand-styled architecture: edit markup in up to {} templates\n\
         rule-set architecture:    1 rule edit restyles {} index units",
        skeletons.len(),
        index_units
    );
    assert!(index_units > 500);
    println!("\nresult: presentation effort is O(rule sets), not O(pages) — the §8 claim.");
}
