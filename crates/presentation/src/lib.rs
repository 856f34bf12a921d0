//! # presentation — templates, layout rules, CSS, and device adaptation
//!
//! §5 of the paper factors presentation out of code generation:
//!
//! * the generator emits **template skeletons** ([`skeleton`]) — minimal
//!   layout grids containing `webml:` custom tags;
//! * **page rules** and **unit rules** ([`rules`]) — our XSLT analogue —
//!   transform skeletons into styled templates, either once at compile
//!   time or per request at runtime;
//! * graphic properties live in **modular CSS** ([`css`]), one module per
//!   unit kind, leveraging the conceptual model;
//! * rule sets are selected per **device class** from the User-Agent
//!   ([`device`]), enabling multi-device applications from one model.
//!
//! Styling compiles down to what the request path writes: a styled
//! template is [`PageRuns`] (literal markup, unit slots and the navigation
//! slot), and each rule set contributes one [`UnitSkin`] per unit type —
//! the literal markup around the cells a unit program in the MVC runtime
//! copies from its bean, escaped by [`escape_html_into`].

pub mod css;
pub mod device;
pub mod escape;
pub mod rules;
pub mod skeleton;

pub use css::{CssRule, Stylesheet};
pub use device::{DeviceClass, DeviceRegistry};
pub use escape::{escape_html, escape_html_into};
pub use rules::{HtmlChunk, PageRule, PageRuns, RuleSet, Run, UnitRule, UnitSkin};
pub use skeleton::{TemplateNode, TemplateSkeleton};
