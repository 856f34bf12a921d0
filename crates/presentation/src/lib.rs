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
//! The dynamic content itself flows through [`content::UnitContent`], the
//! custom-tag boundary between the business tier and the view.

pub mod content;
pub mod css;
pub mod device;
pub mod rules;
pub mod skeleton;

pub use content::{
    escape_html, escape_html_into, AnchorRef, ContentBody, ContentRow, Field, FormContent,
    FormField, NestedRow, Pager, UnitContent,
};
pub use css::{CssRule, Stylesheet};
pub use device::{DeviceClass, DeviceRegistry};
pub use rules::{render_template_chunks, HtmlChunk, PageRule, RuleSet, StyledTemplate, UnitRule};
pub use skeleton::{TemplateNode, TemplateSkeleton};
