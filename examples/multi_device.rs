//! Multi-device adaptation (§5): the same template skeleton styled at
//! runtime with different rule sets, selected by User-Agent.
//!
//! ```sh
//! cargo run --example multi_device
//! ```

use webml_ratio::mvc::{StylingMode, WebRequest};
use webml_ratio::presentation::{DeviceClass, DeviceRegistry, RuleSet, Stylesheet};
use webml_ratio::webratio::{fixtures, DeployOptions};

fn main() {
    let app = fixtures::acm_library();

    // runtime styling + a custom device registry with three rule sets
    let mut devices = DeviceRegistry::new();
    devices.register(
        DeviceClass {
            name: "pda".into(),
            ua_markers: vec!["pda".into(), "mobile".into(), "palm".into()],
        },
        RuleSet::minimal_device("pda"),
    );
    devices.register(
        DeviceClass {
            name: "wap".into(),
            ua_markers: vec!["wap".into()],
        },
        RuleSet::minimal_device("wap"),
    );
    let mut desktop = RuleSet::default_desktop("desktop");
    desktop.page_rules[0].banner = "ACM Digital Library".into();
    devices.set_default(desktop.clone());

    let mut options = DeployOptions::default();
    options.runtime.styling = StylingMode::Runtime; // §5: rules applied per request
    let d = app
        .assemble(
            options,
            None,
            Some(&|parts| parts.devices = devices.clone()),
        )
        .expect("deploy");
    fixtures::seed_acm(&d.db, 2, 2, 2);

    // the generated modular CSS (one module per unit kind, §5)
    let css = Stylesheet::for_rule_set(
        &desktop,
        &["data", "index", "hierarchy", "entry", "scroller"],
    );
    println!(
        "generated stylesheet '{}': {} modules, {} rules\n",
        css.name,
        css.modules.len(),
        css.rule_count()
    );

    let page = "/acm_dl/volume_page?volume=1";
    for (label, ua) in [
        ("desktop ", "Mozilla/5.0 (Windows NT 10.0; Win64)"),
        ("pda     ", "SuperHandheld PalmOS PDA/2.1"),
        ("wap     ", "Nokia7110/1.0 WAP-Gateway"),
    ] {
        let resp = d.handle(
            &WebRequest::get("/acm_dl/volume_page")
                .with_param("volume", "1")
                .with_user_agent(ua),
        );
        let has_banner = resp.body.contains("class=\"banner\"");
        let has_nav = resp.body.contains("<nav");
        println!(
            "{label} UA → {:>5} bytes | banner: {:5} | navigation: {:5}",
            resp.body.len(),
            has_banner,
            has_nav
        );
    }
    println!("\nsame model, same skeleton, three presentations — no template was edited ({page})");
}
