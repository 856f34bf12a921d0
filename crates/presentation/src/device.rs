//! Multi-device adaptation.
//!
//! §5: "Different XSL rules can be designed addressing the presentation
//! requirements of alternative devices; then, the most appropriate rules
//! can be dynamically applied at runtime, based on the user agent declared
//! in the HTTP request."

use crate::rules::RuleSet;

/// One device class and the user-agent substrings that identify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceClass {
    pub name: String,
    /// Case-insensitive substrings matched against the User-Agent header.
    pub ua_markers: Vec<String>,
}

/// Maps User-Agent strings to rule sets.
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    /// Ordered: first match wins.
    classes: Vec<(DeviceClass, RuleSet)>,
    /// Fallback rule set when nothing matches.
    default_rules: Option<RuleSet>,
}

impl DeviceRegistry {
    pub fn new() -> DeviceRegistry {
        DeviceRegistry::default()
    }

    /// A registry with the three classic classes: desktop (default),
    /// PDA/phone, and WAP.
    pub fn standard() -> DeviceRegistry {
        let mut r = DeviceRegistry::new();
        r.register(
            DeviceClass {
                name: "pda".into(),
                ua_markers: vec!["pda".into(), "mobile".into(), "palm".into(), "phone".into()],
            },
            RuleSet::minimal_device("pda"),
        );
        r.register(
            DeviceClass {
                name: "wap".into(),
                ua_markers: vec!["wap".into(), "wml".into()],
            },
            RuleSet::minimal_device("wap"),
        );
        r.set_default(RuleSet::default_desktop("desktop"));
        r
    }

    pub fn register(&mut self, class: DeviceClass, rules: RuleSet) {
        self.classes.push((class, rules));
    }

    pub fn set_default(&mut self, rules: RuleSet) {
        self.default_rules = Some(rules);
    }

    /// Select the rule set for a User-Agent header value.
    pub fn select(&self, user_agent: &str) -> Option<&RuleSet> {
        match self.matching(user_agent) {
            Some((_, rules)) => Some(rules),
            None => self.default_rules.as_ref(),
        }
    }

    /// Name of the device class matched by a User-Agent.
    pub fn classify(&self, user_agent: &str) -> &str {
        self.matching(user_agent)
            .map_or("desktop", |(class, _)| class.name.as_str())
    }

    /// The first class one of whose markers occurs in `user_agent`,
    /// compared case-insensitively in place: no lowered copy per request.
    fn matching(&self, user_agent: &str) -> Option<&(DeviceClass, RuleSet)> {
        let ua = user_agent.as_bytes();
        self.classes.iter().find(|(class, _)| {
            class.ua_markers.iter().any(|m| {
                let m = m.as_bytes();
                m.len() <= ua.len() && ua.windows(m.len()).any(|w| w.eq_ignore_ascii_case(m))
            })
        })
    }

    /// All registered rule sets (default last), for compile-time styling
    /// of every device variant.
    pub fn rule_sets(&self) -> Vec<&RuleSet> {
        let mut v: Vec<&RuleSet> = self.classes.iter().map(|(_, r)| r).collect();
        if let Some(d) = &self.default_rules {
            v.push(d);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_classifies() {
        let r = DeviceRegistry::standard();
        assert_eq!(r.classify("Mozilla/5.0 (Windows NT 10.0)"), "desktop");
        assert_eq!(r.classify("SuperBrowser Mobile/1.0"), "pda");
        assert_eq!(r.classify("Nokia-WAP-Gateway"), "wap");
    }

    #[test]
    fn select_returns_matching_rules() {
        let r = DeviceRegistry::standard();
        assert_eq!(r.select("PalmOS PDA").unwrap().name, "pda");
        assert_eq!(r.select("Firefox").unwrap().name, "desktop");
    }

    #[test]
    fn markers_match_any_case() {
        let r = DeviceRegistry::standard();
        for (ua, class) in [
            ("SuperBrowser MOBILE/1.0", "pda"),
            ("palmos PDA", "pda"),
            ("x PhOnE y", "pda"),
            ("Nokia-Wap", "wap"),
            ("Opera WML", "wap"),
        ] {
            assert_eq!(r.classify(ua), class, "{ua}");
            assert_eq!(r.classify(&ua.to_ascii_lowercase()), class, "{ua}");
        }
        assert_eq!(r.select("PALMOS").unwrap().name, "pda");
        assert_eq!(r.select("NOKIA-WAP-GATEWAY").unwrap().name, "wap");
        assert_eq!(
            r.select("Mozilla/5.0 (X11; Linux)").unwrap().name,
            "desktop"
        );
        assert_eq!(r.classify(""), "desktop");
        // a marker registered in upper case matches too
        let mut custom = DeviceRegistry::new();
        custom.register(
            DeviceClass {
                name: "tv".into(),
                ua_markers: vec!["SmartTV".into()],
            },
            RuleSet::minimal_device("tv"),
        );
        assert_eq!(custom.classify("Mozilla/5.0 (smarttv; Linux)"), "tv");
        assert_eq!(custom.classify("TV"), "desktop");
    }

    #[test]
    fn first_match_wins() {
        let mut r = DeviceRegistry::new();
        r.register(
            DeviceClass {
                name: "a".into(),
                ua_markers: vec!["x".into()],
            },
            RuleSet::minimal_device("a"),
        );
        r.register(
            DeviceClass {
                name: "b".into(),
                ua_markers: vec!["x".into()],
            },
            RuleSet::minimal_device("b"),
        );
        assert_eq!(r.classify("x-agent"), "a");
    }

    #[test]
    fn rule_sets_include_default_last() {
        let r = DeviceRegistry::standard();
        let sets = r.rule_sets();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.last().unwrap().name, "desktop");
    }

    #[test]
    fn empty_registry_selects_none() {
        let r = DeviceRegistry::new();
        assert!(r.select("anything").is_none());
        assert_eq!(r.classify("anything"), "desktop");
    }
}
