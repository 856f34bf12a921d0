//! Deploy-time page plans.
//!
//! The model fixes, before the first request, everything the request path
//! used to re-derive: which descriptor a unit id names, which edges feed a
//! unit and which links leave it, which parameters its queries *bind*,
//! which service computes it, what the site view's navigation bar says.
//! [`SitePlan::build`] compiles that once per controller (id → index
//! maps, one pass over units, pages and mappings); the controller, the
//! page service and the app-server clones then walk the plan and never
//! scan the descriptor set.
//!
//! The plan also owns the one definition of a unit's **cache identity**:
//! [`UnitStep::bind`] derives the effective parameters (request < session
//! < edges) and the fingerprint of the ones the unit consumes. The bean
//! key and the fragment key are both that string, and
//! [`UnitStep::dependencies`] is the one rule for what both levels depend
//! on, so they agree on which row a unit *shows* — not on which row the
//! URL happens to name.

use crate::beans::UnitBean;
use crate::render::{navigation_html, UnitProgram};
use crate::services::{fingerprint, ParamMap, ServiceRegistry, UnitService};
use descriptors::{
    ActionKind, DescriptorSet, OperationDescriptor, PageDescriptor, ParamBinding, UnitDescriptor,
    UnitLinkSpec,
};
use relstore::Value;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One unit of a page, with everything the request path needs about it.
pub struct UnitStep {
    pub desc: UnitDescriptor,
    /// The business component the descriptor names; `None` when the
    /// registry has none (reported when the unit is first computed).
    pub service: Option<Arc<dyn UnitService>>,
    /// Incoming dataflow edges: the plan position of the source unit and
    /// the parameters it feeds. Edges whose source is not computed before
    /// this unit can never contribute and are dropped here.
    pub edges: Vec<(usize, Vec<ParamBinding>)>,
    /// The unit's compiled view — its markup minus the rule set's skin,
    /// with the user-navigable links leaving it compiled in page order.
    pub program: UnitProgram,
    /// Index of the unit's type in [`SitePlan::unit_types`]: selects the
    /// rule set's skin for it.
    pub kind: usize,
    /// The parameter names the unit binds: the sorted union of its
    /// queries' inputs. `None` for a unit that declares no query and so
    /// nothing about what it reads (plug-in units): every effective
    /// parameter counts.
    pub consumed: Option<Vec<String>>,
    /// The unit's markup embeds the raw request (the scroller's pager
    /// links): its fragments additionally key on the request fingerprint.
    pub embeds_request: bool,
    /// The probing parameter when the unit's first query is a pure
    /// primary-key probe (`… WHERE t.oid = :p`).
    pub probe_param: Option<String>,
    /// A pure oid probe as the first query: the probed table, and the
    /// unit's other tables. See [`UnitStep::dependencies`].
    probe: Option<(String, Vec<String>)>,
    /// The page's `ETag` may validate this unit against the version of the
    /// one row of `desc.entity_table` the request names in `probe_param`:
    /// a single key-probe query over its only dependency whose probe
    /// parameter nothing overrides. A probe parameter fed by an edge or by
    /// session state names a row the request does not choose, so such a
    /// unit validates against its table stamp.
    pub validates_by_row: bool,
    /// `unit:<id>` / `fragment:<id>` span names.
    pub unit_span: String,
    pub fragment_span: String,
}

/// One computed unit: its bean and its cache identity.
#[derive(Debug, Clone)]
pub struct ComputedUnit {
    pub bean: Arc<UnitBean>,
    /// Fingerprint (`k=v&…`) of the effective parameters the unit
    /// consumes — the `params` of its bean key and of its fragment keys.
    pub key: String,
    /// The row the unit shows, when it is a pure oid probe
    /// ([`UnitStep::probed_oid`]).
    pub oid: Option<i64>,
}

impl UnitStep {
    /// The row the unit shows when it is a pure oid probe whose parameter
    /// is bound to an integer in the unit's effective `params`.
    pub fn probed_oid(&self, params: &ParamMap) -> Option<i64> {
        match params.get(self.probe_param.as_ref()?) {
            Some(Value::Integer(oid)) => Some(*oid),
            _ => None,
        }
    }

    /// What the unit's cached bean and fragments depend on when it shows
    /// row `oid` ([`UnitStep::probed_oid`]): that one row and the unit's
    /// other tables, or — no row — every table of `depends_on`. One rule
    /// for both cache levels: the bean's put, and the fragment's put and
    /// read.
    pub fn dependencies(&self, oid: Option<i64>) -> (&[String], Option<(String, i64)>) {
        match (&self.probe, oid) {
            (Some((table, others)), Some(oid)) => (others, Some((table.clone(), oid))),
            _ => (&self.desc.depends_on, None),
        }
    }

    /// The unit's effective parameters — request < session < edges — and
    /// their fingerprint restricted to [`UnitStep::consumed`]. `computed`
    /// holds the page's units computed so far, in plan order. The request
    /// map is borrowed unless a session variable or an edge adds to it.
    pub fn bind<'a>(
        &self,
        request: &'a ParamMap,
        session: &ParamMap,
        computed: &[ComputedUnit],
    ) -> (Cow<'a, ParamMap>, String) {
        let mut params = Cow::Borrowed(request);
        if !session.is_empty() {
            let params = params.to_mut();
            for (k, v) in session {
                params.insert(format!("session_{k}"), v.clone());
            }
        }
        for (source, bindings) in &self.edges {
            let Some(source) = computed.get(*source) else {
                continue;
            };
            for p in bindings {
                let value = match p.source_kind.as_str() {
                    "oid" => source.bean.propagated_oid().map(Value::Integer),
                    "attribute" => source.bean.propagated_attribute(&p.source),
                    "constant" => Some(Value::Text(p.source.as_str().into())),
                    "session" => session.get(&p.source).cloned(),
                    // fields flow through the request, not the model
                    _ => None,
                };
                if let Some(v) = value {
                    params.to_mut().insert(p.name.clone(), v);
                }
            }
        }
        let key = match &self.consumed {
            Some(names) => fingerprint(
                names
                    .iter()
                    .filter_map(|name| Some((name, params.get(name)?))),
            ),
            None => fingerprint(params.iter()),
        };
        (params, key)
    }
}

/// One page: what the request path reads of its descriptor, its units in
/// computation order, and what depends only on (site view, page).
pub struct PagePlan {
    pub id: String,
    /// URL path the controller maps to this page.
    pub url: String,
    /// Template path in the View (the fragment key's first component).
    pub template: String,
    /// Pages of protected site views require an authenticated session.
    pub protected: bool,
    pub units: Vec<UnitStep>,
    /// A unit id the page lists without a descriptor (or that an earlier
    /// page already listed); computing the page reports it.
    pub dangling_unit: Option<String>,
    /// The site view's landmark navigation as seen from this page.
    pub nav: String,
    /// `page:<name>` span name.
    pub span: String,
    /// Some unit's fragments key on the request fingerprint.
    pub embeds_request: bool,
    /// Sorted entity tables the `ETag` stamps for the units without a
    /// row validator.
    pub stamp_deps: Vec<String>,
}

impl PagePlan {
    /// Plan position of a unit of this page.
    pub fn position(&self, unit_id: &str) -> Option<usize> {
        self.units.iter().position(|s| s.desc.id == unit_id)
    }
}

/// What an action path maps to.
pub enum Route {
    /// Index into [`SitePlan::pages`].
    Page(usize),
    Operation {
        /// Index into [`SitePlan::operations`].
        operation: usize,
        ok_forward: String,
        ko_forward: String,
    },
    /// The mapping names a page or operation the set does not hold.
    Dangling(String),
}

/// The compiled deployment: every page plan, the operations, and the
/// action mappings by path.
pub struct SitePlan {
    pub pages: Vec<PagePlan>,
    /// Every unit type of the deployment, once: each rule set styles one
    /// skin per entry.
    pub unit_types: Vec<String>,
    pub operations: Vec<OperationDescriptor>,
    page_ids: HashMap<String, usize>,
    routes: HashMap<String, Route>,
}

impl SitePlan {
    pub fn build(set: DescriptorSet, services: &ServiceRegistry) -> SitePlan {
        let DescriptorSet {
            units,
            pages,
            operations,
            controller,
        } = set;
        // every unit moves into the one page that lists it
        let mut units: HashMap<String, UnitDescriptor> =
            units.into_iter().map(|u| (u.id.clone(), u)).collect();

        // landmark pages per site view, in page order
        let mut landmarks: HashMap<&str, Vec<&PageDescriptor>> = HashMap::new();
        for p in pages.iter().filter(|p| p.landmark) {
            landmarks.entry(p.site_view.as_str()).or_default().push(p);
        }
        let navs: Vec<String> = pages
            .iter()
            .map(|p| {
                let marks = landmarks.get(p.site_view.as_str());
                navigation_html(marks.map_or(&[][..], Vec::as_slice), &p.id)
            })
            .collect();

        let mut unit_types = Vec::new();
        let plans: Vec<PagePlan> = pages
            .into_iter()
            .zip(navs)
            .map(|(page, nav)| plan_page(page, nav, &mut units, &mut unit_types, services))
            .collect();
        let page_ids: HashMap<String, usize> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        let operation_ids: HashMap<&str, usize> = operations
            .iter()
            .enumerate()
            .map(|(i, o)| (o.id.as_str(), i))
            .collect();

        let mut routes = HashMap::with_capacity(controller.mappings.len());
        for m in controller.mappings {
            let route = match m.kind {
                ActionKind::Page { page, .. } => match page_ids.get(&page) {
                    Some(&i) => Route::Page(i),
                    None => Route::Dangling(page),
                },
                ActionKind::Operation {
                    operation,
                    ok_forward,
                    ko_forward,
                } => match operation_ids.get(operation.as_str()) {
                    Some(&i) => Route::Operation {
                        operation: i,
                        ok_forward,
                        ko_forward,
                    },
                    None => Route::Dangling(operation),
                },
            };
            // first mapping of a path wins
            routes.entry(m.path).or_insert(route);
        }
        drop(operation_ids);
        SitePlan {
            pages: plans,
            unit_types,
            operations,
            page_ids,
            routes,
        }
    }

    pub fn route(&self, path: &str) -> Option<&Route> {
        self.routes.get(path)
    }

    pub fn page(&self, id: &str) -> Option<&PagePlan> {
        self.page_ids.get(id).map(|&i| &self.pages[i])
    }
}

fn plan_page(
    page: PageDescriptor,
    nav: String,
    units: &mut HashMap<String, UnitDescriptor>,
    unit_types: &mut Vec<String>,
    services: &ServiceRegistry,
) -> PagePlan {
    let PageDescriptor {
        id,
        name,
        url,
        units: unit_ids,
        edges: page_edges,
        links: page_links,
        template,
        protected,
        ..
    } = page;
    let position: HashMap<&str, usize> = unit_ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let mut edges: Vec<Vec<(usize, Vec<ParamBinding>)>> = vec![Vec::new(); unit_ids.len()];
    for e in page_edges {
        if let (Some(&from), Some(&to)) =
            (position.get(e.from.as_str()), position.get(e.to.as_str()))
        {
            if from < to {
                edges[to].push((from, e.params));
            }
        }
    }
    let mut links: Vec<Vec<UnitLinkSpec>> = vec![Vec::new(); unit_ids.len()];
    for l in page_links {
        if let Some(&from) = position.get(l.from.as_str()) {
            links[from].push(l);
        }
    }

    let mut steps = Vec::with_capacity(unit_ids.len());
    let mut dangling_unit = None;
    let mut stamp_deps = BTreeSet::new();
    for ((unit_id, edges), links) in unit_ids.iter().zip(edges).zip(links) {
        let Some(mut desc) = units.remove(unit_id) else {
            dangling_unit = Some(unit_id.clone());
            break;
        };
        let opaque = desc.queries.is_empty() && desc.unit_type != "entry";
        let consumed = (!opaque).then(|| {
            let inputs: BTreeSet<&String> = desc.queries.iter().flat_map(|q| &q.inputs).collect();
            inputs.into_iter().cloned().collect()
        });
        // what the unit shows depends on every table it reads: complete
        // `depends_on` with its entity table and the tables of its first
        // and main queries, so the caches and the `ETag` never depend on
        // less
        let scope = |q: Option<&descriptors::QuerySpec>| webcache::query_scope(&q?.sql);
        let (first, main) = (scope(desc.queries.first()), scope(desc.main_query()));
        let read = first.iter().chain(&main).map(|(table, _)| table);
        for table in desc.entity_table.iter().chain(read) {
            if !desc.depends_on.contains(table) {
                desc.depends_on.push(table.clone());
            }
        }
        let (probe_param, probe) = match first {
            Some((table, Some(param))) => {
                let others = desc.depends_on.iter().filter(|t| **t != table);
                let others = others.cloned().collect();
                (Some(param), Some((table, others)))
            }
            _ => (None, None),
        };
        let overridden = |param: &str| {
            param.starts_with("session_")
                || edges
                    .iter()
                    .any(|(_, bindings)| bindings.iter().any(|p| p.name == param))
        };
        // a single key-probe query over the unit's own (and only)
        // dependency — the shape the maintenance planner patches by key
        let validates_by_row = desc.queries.len() == 1
            && desc.entity_table.is_some()
            && desc.depends_on.as_slice() == desc.entity_table.as_slice()
            && probe_param.as_deref().is_some_and(|p| !overridden(p));
        if !validates_by_row {
            stamp_deps.extend(desc.depends_on.iter().cloned());
        }
        let kind = match unit_types.iter().position(|t| *t == desc.unit_type) {
            Some(kind) => kind,
            None => {
                unit_types.push(desc.unit_type.clone());
                unit_types.len() - 1
            }
        };
        steps.push(UnitStep {
            service: services.resolve(&desc).ok(),
            program: UnitProgram::compile(&desc, &links, &url),
            kind,
            edges,
            consumed,
            embeds_request: desc.unit_type == "scroller",
            probe_param,
            probe,
            validates_by_row,
            unit_span: format!("unit:{unit_id}"),
            fragment_span: format!("fragment:{unit_id}"),
            desc,
        });
    }
    drop(position);
    let label = if name.is_empty() { &id } else { &name };
    PagePlan {
        span: format!("page:{label}"),
        embeds_request: steps.iter().any(|s| s.embeds_request),
        stamp_deps: stamp_deps.into_iter().collect(),
        units: steps,
        dangling_unit,
        nav,
        id,
        url,
        template,
        protected,
    }
}
