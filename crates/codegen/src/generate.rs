//! The code generator: WebML + ER → descriptors, controller configuration,
//! template skeletons, and DDL.
//!
//! This is the pipeline §1 describes: "customisable code generators for
//! transforming ER specifications into relational table definitions ... and
//! WebML specifications into page templates", organised around the generic
//! service + descriptor architecture of §4.

use crate::indexes::{derive_indexes, DerivedIndex};
use crate::queries::{GenError, QueryGen};
use descriptors::{
    ActionKind, ActionMapping, CacheDescriptor, ControllerConfig, DescriptorSet, FieldSpec,
    OperationDescriptor, PageDescriptor, ParamBinding, TransportEdge, UnitDescriptor, UnitLinkSpec,
};
use er::{sql_name, ErModel, RelationalMapping};
use presentation::TemplateSkeleton;
use std::collections::HashMap;
use webml::{
    HypertextModel, LayoutCategory, LinkEnd, LinkKind, OperationId, PageId, ParamSource, Severity,
    UnitId, UnitKind,
};

/// Everything one generation run produces.
#[derive(Debug, Clone)]
pub struct Generated {
    pub descriptors: DescriptorSet,
    pub skeletons: Vec<TemplateSkeleton>,
    /// DDL script for the data tier.
    pub ddl: String,
    /// Secondary indexes derived from the hypertext model's access paths
    /// (selector equalities, role traversals, sort keys). Deploy applies
    /// them idempotently after the DDL.
    pub derived_indexes: Vec<DerivedIndex>,
    /// Non-fatal validation findings.
    pub warnings: Vec<String>,
}

/// Stable artifact identifiers.
pub fn unit_id(u: UnitId) -> String {
    format!("unit{}", u.0)
}

pub fn page_id(p: PageId) -> String {
    format!("page{}", p.0)
}

pub fn operation_id(o: OperationId) -> String {
    format!("op{}", o.0)
}

/// URL of a page: `/<site view>/<page>`.
pub fn page_url(ht: &HypertextModel, p: PageId) -> String {
    let page = ht.page(p);
    let sv = ht.site_view(page.site_view);
    format!("/{}/{}", sql_name(&sv.name), sql_name(&page.name))
}

/// URL of an operation: `/op/<id>_<name>`.
pub fn operation_url(ht: &HypertextModel, o: OperationId) -> String {
    format!(
        "/op/{}_{}",
        operation_id(o),
        sql_name(&ht.operation(o).name)
    )
}

fn generic_service_for(unit_type: &str) -> String {
    let mut c = unit_type.chars();
    let capitalised = match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    };
    format!("Generic{capitalised}Service")
}

fn param_binding(source: &ParamSource, name: &str) -> ParamBinding {
    let (kind, src) = match source {
        ParamSource::SelectedOid => ("oid", String::new()),
        ParamSource::Attribute(a) => ("attribute", a.clone()),
        ParamSource::Field(f) => ("field", f.clone()),
        ParamSource::Constant(c) => ("constant", c.clone()),
        ParamSource::Session(s) => ("session", s.clone()),
    };
    ParamBinding {
        name: name.to_string(),
        source_kind: kind.to_string(),
        source: src,
    }
}

/// Grid columns per layout category.
fn columns_for(layout: LayoutCategory) -> usize {
    match layout {
        LayoutCategory::SingleColumn => 1,
        LayoutCategory::TwoColumns | LayoutCategory::MultiFrame => 2,
        LayoutCategory::ThreeColumns => 3,
    }
}

/// Resolve a link target to the URL the controller will map.
fn target_url(ht: &HypertextModel, end: LinkEnd) -> String {
    match end {
        LinkEnd::Page(p) => page_url(ht, p),
        LinkEnd::Unit(u) => page_url(ht, ht.unit(u).page),
        LinkEnd::Operation(o) => operation_url(ht, o),
    }
}

/// Run the full generation pipeline. Fails if the model has
/// [`Severity::Error`] findings.
pub fn generate(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
) -> Result<Generated, GenError> {
    let issues = webml::validate(er, ht);
    let errors: Vec<String> = issues
        .iter()
        .filter(|i| i.severity == Severity::Error)
        .map(|i| i.to_string())
        .collect();
    if !errors.is_empty() {
        return Err(GenError::InvalidModel(errors));
    }
    let warnings: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
    let qg = QueryGen::new(er, mapping);

    // ---- unit descriptors -------------------------------------------------
    let mut units = Vec::new();
    for (uid, unit) in ht.units() {
        // the parameter name feeding a hierarchical index's root level
        let level0_param = ht
            .links_to(LinkEnd::Unit(uid))
            .flat_map(|(_, l)| l.parameters.first())
            .map(|p| p.name.clone())
            .next();
        let queries = qg.unit_queries(unit, level0_param.as_deref())?;
        let fields = match &unit.kind {
            UnitKind::Entry { fields } => fields
                .iter()
                .map(|f| FieldSpec {
                    name: f.name.clone(),
                    field_type: f.field_type.name().to_string(),
                    required: f.required,
                    pattern: f.pattern.clone(),
                })
                .collect(),
            _ => Vec::new(),
        };
        units.push(UnitDescriptor {
            id: unit_id(uid),
            name: unit.name.clone(),
            unit_type: unit.kind.type_name().to_string(),
            page: page_id(unit.page),
            entity_table: unit
                .entity
                .and_then(|e| mapping.table_for(e))
                .map(String::from),
            queries,
            block_size: match unit.kind {
                UnitKind::Scroller { block_size } => Some(block_size),
                _ => None,
            },
            fields,
            optimized: false,
            service: generic_service_for(unit.kind.type_name()),
            depends_on: qg.unit_dependencies(unit),
            cache: unit.cache.as_ref().map(|c| CacheDescriptor {
                ttl_ms: c.ttl.map(|d| d.as_millis() as u64),
                invalidate_on_write: c.invalidate_on_write,
            }),
        });
    }

    // ---- page descriptors ---------------------------------------------------
    let mut pages = Vec::new();
    for (pid, page) in ht.pages() {
        let sv = ht.site_view(page.site_view);
        let url = page_url(ht, pid);
        let template = format!(
            "templates/{}/{}.jsp",
            sql_name(&sv.name),
            sql_name(&page.name)
        );

        // dataflow edges: transport + automatic links between this page's units
        let mut edges = Vec::new();
        for (_, l) in ht.links() {
            if !matches!(l.kind, LinkKind::Transport | LinkKind::Automatic) {
                continue;
            }
            let (Some(s), Some(t)) = (l.source.as_unit(), l.target.as_unit()) else {
                continue;
            };
            if ht.unit(s).page != pid || ht.unit(t).page != pid {
                continue;
            }
            edges.push(TransportEdge {
                from: unit_id(s),
                to: unit_id(t),
                params: l
                    .parameters
                    .iter()
                    .map(|p| param_binding(&p.source, &p.name))
                    .collect(),
                automatic: l.kind == LinkKind::Automatic,
            });
        }

        // computation order: topological sort over edges (Kahn, stable)
        let unit_ids: Vec<String> = page.units.iter().map(|&u| unit_id(u)).collect();
        let ordered = topo_sort(&unit_ids, &edges);

        // navigable links leaving this page's units
        let mut links = Vec::new();
        for (_, l) in ht.links() {
            if !l.kind.is_user_navigated() {
                continue;
            }
            let Some(s) = l.source.as_unit() else {
                continue;
            };
            if ht.unit(s).page != pid {
                continue;
            }
            links.push(UnitLinkSpec {
                from: unit_id(s),
                target_url: target_url(ht, l.target),
                label: l.label.clone().unwrap_or_default(),
                params: l
                    .parameters
                    .iter()
                    .map(|p| param_binding(&p.source, &p.name))
                    .collect(),
            });
        }

        // request params: inputs a unit requires that no incoming
        // intra-page edge supplies to *that unit*
        let mut request_params: Vec<String> = Vec::new();
        for &u in &page.units {
            let uid_str = unit_id(u);
            let desc = units.iter().find(|d| d.id == uid_str).unwrap();
            let supplied: Vec<&str> = edges
                .iter()
                .filter(|e| e.to == uid_str)
                .flat_map(|e| e.params.iter().map(|p| p.name.as_str()))
                .collect();
            for q in &desc.queries {
                for input in &q.inputs {
                    if input.starts_with("block_") || input == "parent" {
                        continue; // runtime-internal parameters
                    }
                    if !supplied.contains(&input.as_str()) && !request_params.contains(input) {
                        request_params.push(input.clone());
                    }
                }
            }
        }

        pages.push(PageDescriptor {
            id: page_id(pid),
            name: page.name.clone(),
            site_view: sql_name(&sv.name),
            url,
            units: ordered,
            edges,
            links,
            request_params,
            layout: page.layout.name().to_string(),
            template,
            landmark: page.landmark || sv.home == Some(pid),
            protected: sv.protected,
        });
    }

    // ---- operation descriptors ---------------------------------------------
    let mut operations = Vec::new();
    for (oid, op) in ht.operations() {
        let (sql, entity_table, invalidates) = qg.operation_sql(op)?;
        let ok_forward = ht
            .links_from(LinkEnd::Operation(oid))
            .find(|(_, l)| l.kind == LinkKind::Ok)
            .map(|(_, l)| target_url(ht, l.target));
        let ko_forward = ht
            .links_from(LinkEnd::Operation(oid))
            .find(|(_, l)| l.kind == LinkKind::Ko)
            .map(|(_, l)| target_url(ht, l.target));
        let role = match &op.kind {
            webml::OperationKind::Connect { role } | webml::OperationKind::Disconnect { role } => {
                Some(role.clone())
            }
            _ => None,
        };
        operations.push(OperationDescriptor {
            id: operation_id(oid),
            name: op.name.clone(),
            op_type: op.kind.type_name().to_string(),
            url: operation_url(ht, oid),
            entity_table,
            role,
            inputs: op.inputs.clone(),
            sql,
            ok_forward,
            ko_forward,
            invalidates,
            service: "GenericOperationService".into(),
        });
    }

    // ---- controller configuration --------------------------------------------
    let mut mappings = Vec::new();
    for p in &pages {
        mappings.push(ActionMapping {
            path: p.url.clone(),
            kind: ActionKind::Page {
                page: p.id.clone(),
                view: p.template.clone(),
            },
        });
    }
    for o in &operations {
        mappings.push(ActionMapping {
            path: o.url.clone(),
            kind: ActionKind::Operation {
                operation: o.id.clone(),
                ok_forward: o.ok_forward.clone().unwrap_or_default(),
                ko_forward: o
                    .ko_forward
                    .clone()
                    .or_else(|| o.ok_forward.clone())
                    .unwrap_or_default(),
            },
        });
    }
    let controller = ControllerConfig { mappings };

    // ---- template skeletons ------------------------------------------------
    let mut skeletons = Vec::new();
    for (pid, page) in ht.pages() {
        let pdesc = pages.iter().find(|p| p.id == page_id(pid)).unwrap();
        let slots: Vec<(String, String)> = pdesc
            .units
            .iter()
            .map(|uid| {
                let u = units.iter().find(|u| &u.id == uid).unwrap();
                (uid.clone(), u.unit_type.clone())
            })
            .collect();
        skeletons.push(TemplateSkeleton::grid(
            pdesc.id.clone(),
            page.name.clone(),
            page.layout.name(),
            &slots,
            columns_for(page.layout),
        ));
    }

    Ok(Generated {
        descriptors: DescriptorSet {
            units,
            pages,
            operations,
            controller,
        },
        skeletons,
        ddl: er::ddl_script(mapping),
        derived_indexes: derive_indexes(er, mapping, ht),
        warnings,
    })
}

/// Regenerate after a model change, preserving §6 descriptor overrides.
/// Returns the merged artifacts and the ids of preserved descriptors.
pub fn regenerate(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    previous: &DescriptorSet,
) -> Result<(Generated, Vec<String>), GenError> {
    let mut fresh = generate(er, mapping, ht)?;
    let (merged, preserved) =
        DescriptorSet::merge_preserving_overrides(previous, fresh.descriptors);
    fresh.descriptors = merged;
    Ok((fresh, preserved))
}

/// Stable topological sort of `nodes` w.r.t. `edges` (Kahn; insertion
/// order breaks ties). Falls back to the input order on cycles — the
/// validator has already rejected those.
fn topo_sort(nodes: &[String], edges: &[TransportEdge]) -> Vec<String> {
    let index: HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut indeg = vec![0usize; nodes.len()];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        if let (Some(&f), Some(&t)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) {
            adj[f].push(t);
            indeg[t] += 1;
        }
    }
    let mut order = Vec::with_capacity(nodes.len());
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indeg[i] == 0).collect();
    while let Some(&n) = ready.first() {
        ready.remove(0);
        order.push(nodes[n].clone());
        for &m in &adj[n] {
            indeg[m] -= 1;
            if indeg[m] == 0 {
                // keep stability: insert in node order
                let pos = ready.partition_point(|&r| r < m);
                ready.insert(pos, m);
            }
        }
    }
    if order.len() != nodes.len() {
        return nodes.to_vec();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use er::{AttrType, Attribute, Cardinality};
    use webml::{Audience, Condition, Field, LinkParam, OperationKind};

    struct App {
        er: ErModel,
        mapping: RelationalMapping,
        ht: HypertextModel,
    }

    /// The Fig. 1 ACM Digital Library model plus a small admin flow.
    fn acm() -> App {
        let mut er = ErModel::new();
        let volume = er
            .add_entity(
                "Volume",
                vec![
                    Attribute::new("title", AttrType::String).required(),
                    Attribute::new("year", AttrType::Integer),
                ],
            )
            .unwrap();
        let issue = er
            .add_entity("Issue", vec![Attribute::new("number", AttrType::Integer)])
            .unwrap();
        let paper = er
            .add_entity(
                "Paper",
                vec![Attribute::new("title", AttrType::String).required()],
            )
            .unwrap();
        er.add_relationship(
            "VolumeIssue",
            volume,
            issue,
            "VolumeToIssue",
            "IssueToVolume",
            Cardinality::ONE_ONE,
            Cardinality::ZERO_MANY,
        )
        .unwrap();
        er.add_relationship(
            "IssuePaper",
            issue,
            paper,
            "IssueToPaper",
            "PaperToIssue",
            Cardinality::ONE_ONE,
            Cardinality::ZERO_MANY,
        )
        .unwrap();
        let mapping = RelationalMapping::derive(&er);

        let mut ht = HypertextModel::new();
        let sv = ht.add_site_view("ACM DL", Audience::default());
        let volumes_page = ht.add_page(sv, None, "Volumes");
        let volume_page = ht.add_page(sv, None, "Volume Page");
        let paper_page = ht.add_page(sv, None, "Paper Details");
        ht.set_home(sv, volumes_page);
        ht.set_layout(volume_page, LayoutCategory::TwoColumns);

        let volumes_idx = ht.add_index_unit(volumes_page, "All volumes", volume);
        let volume_data = ht.add_data_unit(volume_page, "Volume data", volume);
        ht.add_condition(
            volume_data,
            Condition::KeyEq {
                param: "volume".into(),
            },
        );
        let hier = ht.add_hierarchical_index(
            volume_page,
            "Issues&Papers",
            vec![
                webml::HierarchyLevel {
                    entity: issue,
                    role: "VolumeToIssue".into(),
                    display_attributes: vec!["number".into()],
                    sort: vec![],
                },
                webml::HierarchyLevel {
                    entity: paper,
                    role: "IssueToPaper".into(),
                    display_attributes: vec!["title".into()],
                    sort: vec![],
                },
            ],
        );
        let entry = ht.add_entry_unit(
            volume_page,
            "Enter keyword",
            vec![Field::new("keyword", AttrType::String).required()],
        );
        let paper_data = ht.add_data_unit(paper_page, "Paper data", paper);
        ht.add_condition(
            paper_data,
            Condition::KeyEq {
                param: "paper".into(),
            },
        );

        ht.link_contextual(
            LinkEnd::Unit(volumes_idx),
            LinkEnd::Unit(volume_data),
            "open",
            vec![LinkParam::oid("volume")],
        );
        ht.link_transport(volume_data, hier, vec![LinkParam::oid("volume")]);
        ht.link_contextual(
            LinkEnd::Unit(hier),
            LinkEnd::Unit(paper_data),
            "To Paper details page",
            vec![LinkParam::oid("paper")],
        );
        ht.link_contextual(
            LinkEnd::Unit(entry),
            LinkEnd::Page(volumes_page),
            "Search",
            vec![LinkParam::field("kw", "keyword")],
        );

        let op = ht.add_operation(
            "CreateVolume",
            OperationKind::Create { entity: volume },
            vec!["title".into(), "year".into()],
        );
        ht.link_ok(op, LinkEnd::Page(volumes_page));
        ht.link_ko(op, LinkEnd::Page(volume_page));
        App { er, mapping, ht }
    }

    #[test]
    fn generates_complete_descriptor_set() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        assert_eq!(g.descriptors.pages.len(), 3);
        assert_eq!(g.descriptors.units.len(), 5);
        assert_eq!(g.descriptors.operations.len(), 1);
        // one mapping per page + per operation (§3)
        assert_eq!(g.descriptors.controller.mappings.len(), 4);
        assert_eq!(g.skeletons.len(), 3);
        assert!(g.ddl.contains("CREATE TABLE volume"));
    }

    #[test]
    fn computation_order_respects_transport_links() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let volume_page = g
            .descriptors
            .pages
            .iter()
            .find(|p| p.name == "Volume Page")
            .unwrap();
        let data_pos = volume_page
            .units
            .iter()
            .position(|u| g.descriptors.unit(u).unwrap().unit_type == "data")
            .unwrap();
        let hier_pos = volume_page
            .units
            .iter()
            .position(|u| g.descriptors.unit(u).unwrap().unit_type == "hierarchy")
            .unwrap();
        assert!(data_pos < hier_pos, "data unit must compute first");
    }

    #[test]
    fn request_params_exclude_transported_ones() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let volume_page = g
            .descriptors
            .pages
            .iter()
            .find(|p| p.name == "Volume Page")
            .unwrap();
        // "volume" feeds the data unit from the request; the hierarchy gets
        // it via the transport edge, so it appears exactly once
        assert_eq!(volume_page.request_params, vec!["volume"]);
    }

    #[test]
    fn hierarchy_level0_param_taken_from_incoming_link() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let hier = g
            .descriptors
            .units
            .iter()
            .find(|u| u.unit_type == "hierarchy")
            .unwrap();
        assert_eq!(hier.queries[0].inputs, vec!["volume"]);
        assert_eq!(hier.depends_on, vec!["issue", "paper"]);
    }

    #[test]
    fn controller_routes_operations_with_forwards() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let op = &g.descriptors.operations[0];
        assert_eq!(op.ok_forward.as_deref(), Some("/acm_dl/volumes"));
        assert_eq!(op.ko_forward.as_deref(), Some("/acm_dl/volume_page"));
        let m = g.descriptors.controller.resolve(&op.url).unwrap();
        match &m.kind {
            ActionKind::Operation { ok_forward, .. } => {
                assert_eq!(ok_forward, "/acm_dl/volumes")
            }
            _ => panic!("expected operation mapping"),
        }
    }

    #[test]
    fn unit_links_resolve_to_target_page_urls() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let volume_page = g
            .descriptors
            .pages
            .iter()
            .find(|p| p.name == "Volume Page")
            .unwrap();
        assert!(volume_page
            .links
            .iter()
            .any(|l| l.target_url == "/acm_dl/paper_details"));
        // the entry unit's search link points back at the volumes page
        assert!(volume_page
            .links
            .iter()
            .any(|l| l.target_url == "/acm_dl/volumes"
                && l.params.iter().any(|p| p.source_kind == "field")));
    }

    #[test]
    fn generate_fails_on_invalid_model() {
        let mut app = acm();
        // break the model: second site view without a home
        app.ht.add_site_view("broken", Audience::default());
        let err = generate(&app.er, &app.mapping, &app.ht).unwrap_err();
        assert!(matches!(err, GenError::InvalidModel(_)));
    }

    #[test]
    fn regenerate_preserves_optimized_descriptors() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let mut previous = g.descriptors.clone();
        let victim = previous.units[0].id.clone();
        previous
            .unit_mut(&victim)
            .unwrap()
            .override_query("SELECT 1 AS tuned");
        let (g2, preserved) = regenerate(&app.er, &app.mapping, &app.ht, &previous).unwrap();
        assert_eq!(preserved, vec![victim.clone()]);
        assert!(g2.descriptors.unit(&victim).unwrap().optimized);
    }

    #[test]
    fn home_pages_are_landmarks() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let home = g
            .descriptors
            .pages
            .iter()
            .find(|p| p.name == "Volumes")
            .unwrap();
        assert!(home.landmark);
    }

    #[test]
    fn skeleton_column_count_follows_layout() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        let sk = g
            .skeletons
            .iter()
            .find(|s| s.page_name == "Volume Page")
            .unwrap();
        assert_eq!(sk.layout, "two-columns");
        // 4 units in 2 columns = 2 rows
        assert_eq!(sk.root.to_source().matches("<tr>").count(), 2);
    }

    #[test]
    fn topo_sort_is_stable_without_edges() {
        let nodes = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        assert_eq!(topo_sort(&nodes, &[]), nodes);
    }

    #[test]
    fn generated_queries_parse() {
        let app = acm();
        let g = generate(&app.er, &app.mapping, &app.ht).unwrap();
        for u in &g.descriptors.units {
            for q in &u.queries {
                relstore::parse_statement(&q.sql)
                    .unwrap_or_else(|e| panic!("unit {} query {}: {e}\n{}", u.id, q.name, q.sql));
            }
        }
        for o in &g.descriptors.operations {
            if let Some(sql) = &o.sql {
                relstore::parse_statement(sql)
                    .unwrap_or_else(|e| panic!("operation {}: {e}\n{sql}", o.id));
            }
        }
        relstore::parse_script(&g.ddl).unwrap();
    }
}
